// The compiled DAG solve path. The crossover allotment search and the
// candidate portfolio of Schedule re-evaluate (γ(λ), times, area, CP) at
// many deadlines; this file resolves those evaluations by threshold binary
// search over the instance's compiled λ-breakpoint tables
// (instance.Compiled, the PR-4 machinery) and caches the derived tables
// per λ-segment, so repeat probes — the bisection endgame, the portfolio,
// and every solve of a replanning lineage that shares a Scratch — pay
// zero re-derivation. The tables answer exactly what the task structs
// would (flattened copies of times and works, λ-thresholds float-exact
// against task.Leq); the test-only refEval and the golden suite hold the
// path to that.
package precedence

import (
	"errors"
	"math"
	"sort"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/schedule"
)

// Options tunes one DAG solve. The zero value solves on privately
// compiled tables and a private scratch.
type Options struct {
	// Compiled supplies the instance's precompiled λ-breakpoint tables
	// (instance.Compile) and must describe exactly the graph's instance
	// (same machine size and time tables; names may differ). nil compiles
	// once per solve and drops the private tables from Scratch again on
	// return. The tables are immutable, so
	// solves on many graphs over the same instance share one value — the
	// engine's per-fingerprint compiled cache does exactly that.
	Compiled *instance.Compiled
	// Scratch attaches the solve to a worker's reusable buffers. The DAG
	// path keeps its working memory — evaluation and list-scheduling
	// buffers plus the λ-segment candidate cache — in an auxiliary slot
	// of the core Scratch (core.Scratch.SetAux), so the engine's
	// per-worker pooling and the warm lineage's scratch pinning extend to
	// DAG solves unchanged, including DropCompiled eviction when a
	// lineage retires its previous residual's tables. nil allocates a
	// private scratch per call.
	Scratch *core.Scratch
	// Warm seeds the crossover search from a previous solve of the same
	// lineage: the prior feasibility floor and crossover deadline
	// (core.WarmStart.Floor / .AcceptedLambda, with .Segment as
	// provenance). Advisory only — each seeded boundary is verified by
	// real evaluations and falls back to the full binary search on
	// mispredict, so a stale or garbage seed wastes probes, never
	// correctness; the result is bit-identical to a cold solve. On
	// success the seed is updated in place for the lineage's next solve.
	Warm *core.WarmStart
}

// Result is the outcome of one DAG solve.
type Result struct {
	// Schedule is the best precedence-feasible schedule found.
	Schedule *schedule.Schedule
	// Probes counts candidate evaluations (a canonical allotment, its
	// times and area, and a critical path) whether derived fresh or
	// served from the λ-segment cache. Counting both keeps the number a
	// deterministic property of the search alone — the same instance
	// always reports the same probes, no matter what a pooled scratch
	// happens to carry — which is what lets the serving tier echo it in
	// responses and the differential oracle compare it bit-for-bit.
	Probes int
	// CacheHits counts the subset of Probes resolved wholly from the
	// λ-segment cache (zero derivation cost). Unlike Probes it depends on
	// cross-solve scratch state, so
	// consumers treat it the way Synthesized is treated everywhere
	// else: a cost annotation, never part of the solution's identity.
	CacheHits int
}

// dagSegCap bounds the λ-segment cache across all (compiled, DAG) pairs a
// Scratch has seen; on overflow the cache is cleared wholesale, like the
// core segment caches (simple, bounds memory and how long retired
// compiled tables stay referenced).
const dagSegCap = 512

// segKey identifies one cached candidate evaluation: the compiled tables
// it derives from, the DAG shape over them, and the λ-segment of the
// compiled global breakpoint axis. The edge hash keeps two graphs over
// the same instance — which share one *instance.Compiled in the engine's
// workload-keyed compiled cache — from aliasing each other's critical
// paths; the residual 64-bit collision risk is accepted as it is for the
// engine memo (a per-process cache, not a correctness oracle).
type segKey struct {
	c     *instance.Compiled
	edges uint64
	seg   int
}

// segEval is one segment's cached candidate tables: the canonical
// allotment γ(λ), its execution times, the normalised area Σw(γ)/m and
// the critical path CP(γ). Every deadline inside one segment derives the
// exact same tables — the compiled thresholds are float-exact against
// task.Leq — so any λ landing in a cached segment reuses them wholesale.
type segEval struct {
	ok    bool
	alloc []int
	times []float64
	area  float64
	cp    float64
}

// Scratch is the reusable working memory of the DAG solve path: the
// λ-segment evaluation cache plus the buffers of the critical-path and
// list-scheduling inner loops. Not safe for concurrent use — it rides a
// per-worker core.Scratch via the aux slot (see Options.Scratch).
type Scratch struct {
	seg map[segKey]*segEval

	times    []float64
	tail     []float64
	evtail   []float64
	preds    []int
	ready    []int
	free     []int
	mergeBuf []int
	winner   []int
	full     []int
	climb    []int
	running  []runEv

	// plan and planProcs back the scratch schedule listSchedule builds
	// into: candidate schedules are materialised here and only cloned
	// when a caller keeps one, so the portfolio and the hill-climb pay
	// no allocation for the candidates they discard.
	plan      schedule.Schedule
	planProcs []int

	readySort readySorter
}

// DropCompiled forgets every cached evaluation derived from c. It is the
// core.AuxCache contract: a warm lineage moving to its next residual
// drops the retired tables through core.Scratch.DropCompiled, which
// forwards here.
func (sc *Scratch) DropCompiled(c *instance.Compiled) {
	for k := range sc.seg {
		if k.c == c {
			delete(sc.seg, k)
		}
	}
}

// put stores a segment evaluation, clearing the cache wholesale at the
// cap (callers copy anything they keep across later evaluations).
func (sc *Scratch) put(k segKey, e *segEval) {
	if sc.seg == nil || len(sc.seg) >= dagSegCap {
		sc.seg = make(map[segKey]*segEval)
	}
	sc.seg[k] = e
}

// auxScratch resolves the precedence working memory attached to a core
// Scratch, creating and attaching it on first use; nil gets a private
// one. The engine pools one core.Scratch per worker and pins one per warm
// lineage, so the DAG buffers and segment cache inherit exactly that
// reuse with no engine changes.
func auxScratch(cs *core.Scratch) *Scratch {
	if cs == nil {
		return &Scratch{}
	}
	if ps, ok := cs.Aux().(*Scratch); ok {
		return ps
	}
	ps := &Scratch{}
	cs.SetAux(ps)
	return ps
}

// intsBuf returns *buf resized to n without zeroing.
func intsBuf(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// floatsBuf returns *buf resized to n without zeroing.
func floatsBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// evalCtx runs candidate evaluations for one solve, through the compiled
// tables and the λ-segment cache.
type evalCtx struct {
	g      *Graph
	c      *instance.Compiled
	sc     *Scratch
	probes int
	hits   int

	// private marks c as compiled by this solve itself; release then
	// drops it from the scratch, since no later solve can look it up.
	private bool
}

func (g *Graph) evalContext(o Options) *evalCtx {
	e := &evalCtx{g: g, c: o.Compiled, sc: auxScratch(o.Scratch)}
	if e.c == nil {
		e.c = instance.Compile(g.in)
		e.private = true
	}
	return e
}

// release ends the solve: privately compiled tables leave the (possibly
// pooled or lineage-pinned) scratch with it instead of pinning cache
// entries until the wholesale clear. Caller-supplied tables stay hot.
func (e *evalCtx) release() {
	if e.private {
		e.sc.DropCompiled(e.c)
	}
}

// eval derives (γ(λ), times, Σw/m, CP) for a candidate deadline; ok is
// false when some task cannot meet it. The returned entry is owned by the
// segment cache — valid until the cache's wholesale clear, so callers
// keeping an allotment across later evaluations must copy it.
func (e *evalCtx) eval(lambda float64) *segEval {
	e.probes++
	key := segKey{c: e.c, edges: e.g.edgeHash, seg: e.c.Segment(lambda)}
	if ent, ok := e.sc.seg[key]; ok {
		e.hits++
		return ent
	}
	n := e.g.in.N()
	ent := &segEval{alloc: make([]int, n), times: make([]float64, n), ok: true}
	var raw float64
	for i := 0; i < n; i++ {
		gm, ok := e.c.Gamma(i, lambda)
		if !ok {
			ent.ok = false
			break
		}
		ent.alloc[i] = gm
		ent.times[i] = e.c.Time(i, gm)
		raw += e.c.Work(i, gm)
	}
	if ent.ok {
		ent.area = raw / float64(e.g.in.M)
		ent.cp = e.g.criticalPathInto(ent.times, floatsBuf(&e.sc.tail, n))
	}
	e.sc.put(key, ent)
	return ent
}

// searchSeeded returns the smallest k in [0, n] with pred(k) true, like
// sort.Search, for a monotone predicate. A valid seed is verified with at
// most two evaluations (pred(seed) && !pred(seed−1)); any mispredict — or
// an out-of-range seed — falls back to the full binary search. Because
// the predicate is monotone the first true index is unique, so the answer
// is identical to sort.Search either way: a warm solve differs from a
// cold one only in how many evaluations it pays.
func searchSeeded(n, seed int, pred func(int) bool) int {
	if seed >= 0 && seed < n && pred(seed) && (seed == 0 || !pred(seed-1)) {
		return seed
	}
	return sort.Search(n, pred)
}

// selectAllotment minimises L(γ(λ)) = max(Σ w(γ)/m, CP(γ(λ))) over the
// canonical-allotment family by crossover search on the graph's deduped
// candidate-deadline array. Both boundaries are monotone in λ — the
// validated profiles make execution times non-increasing and works
// non-decreasing in processors, so raising λ narrows γ, never breaks
// feasibility once reached, grows CP and shrinks the area — which is what
// lets a warm seed bracket each boundary (searchSeeded) and the binary
// searches find them at all. Returns the winning allotment (caller-owned
// copy) and its L value, or nil when no deadline is feasible.
func (e *evalCtx) selectAllotment(warm *core.WarmStart) ([]int, float64) {
	g := e.g
	cands := g.cands
	seedFrom, seedCross := -1, -1
	if warm != nil {
		if warm.Floor > 0 {
			seedFrom = sort.SearchFloat64s(cands, warm.Floor)
		}
		if warm.AcceptedLambda > 0 {
			seedCross = sort.SearchFloat64s(cands, warm.AcceptedLambda)
		}
	}
	from := searchSeeded(len(cands), seedFrom, func(k int) bool {
		return e.eval(cands[k]).ok
	})
	rest := cands[from:]
	cross := searchSeeded(len(rest), seedCross-from, func(k int) bool {
		ent := e.eval(rest[k])
		return ent.ok && ent.cp >= ent.area
	})
	var alloc []int
	bestL := math.Inf(1)
	for _, k := range []int{cross - 1, cross, cross + 1} {
		if k < 0 || k >= len(rest) {
			continue
		}
		if ent := e.eval(rest[k]); ent.ok && math.Max(ent.area, ent.cp) < bestL {
			alloc = append(intsBuf(&e.sc.winner, 0), ent.alloc...)
			bestL = math.Max(ent.area, ent.cp)
		}
	}
	if warm != nil && alloc != nil {
		if from < len(cands) {
			warm.Floor = cands[from]
		}
		if cross < len(rest) {
			warm.AcceptedLambda = rest[cross]
			warm.Segment = e.c.Segment(rest[cross])
		}
		// The probe history belongs to the dual search; a DAG lineage
		// carries only the two boundary deadlines.
		warm.History = nil
	}
	return alloc, bestL
}

// SelectAllotment minimises L(γ(λ')) = max(Σ w(γ)/m, CP(γ(λ'))) over the
// canonical-allotment family (see selectAllotment), on privately compiled
// tables and a private scratch.
func (g *Graph) SelectAllotment() ([]int, float64) {
	return g.evalContext(Options{}).selectAllotment(nil)
}

// SolveCrossover runs the plain two-phase algorithm with no candidate
// portfolio and no refinement: the L-minimising canonical allotment of
// the crossover search, list-scheduled greedily longest-tail-first. It is
// the crossover-search reference point the benchmarks compare the full
// heuristic against.
func (g *Graph) SolveCrossover(o Options) (Result, error) {
	e := g.evalContext(o)
	defer e.release()
	alloc, _ := e.selectAllotment(o.Warm)
	r := Result{Probes: e.probes, CacheHits: e.hits}
	if alloc == nil {
		return r, errors.New("precedence: no feasible canonical allotment")
	}
	s, err := e.listSchedule(alloc)
	if err != nil {
		return r, err
	}
	out := cloneSchedule(s)
	out.Algorithm = "dag-crossover"
	r.Schedule = out
	r.Probes, r.CacheHits = e.probes, e.hits
	return r, nil
}

// ScheduleCrossover is SolveCrossover with default options.
func (g *Graph) ScheduleCrossover() (*schedule.Schedule, error) {
	r, err := g.SolveCrossover(Options{})
	return r.Schedule, err
}

// Solve runs the two-phase heuristic: candidate allotments from the
// canonical family (the L-minimiser of the crossover search, the
// full-machine allotment, and a logarithmic sample of the deduped λ
// grid) are each list-scheduled greedily in longest-tail order, the best
// schedule wins, and a per-task width hill-climb refines it. Trying the
// whole family matters: chain-dominated graphs want wide allotments
// (critical path rules) while wide graphs want narrow ones (area rules),
// and no single L measure captures both. The result is a valid
// non-contiguous schedule; the validator runs with contiguity off,
// matching rigid.List.
func (g *Graph) Solve(o Options) (Result, error) {
	e := g.evalContext(o)
	defer e.release()
	in := g.in
	n := in.N()
	var best *schedule.Schedule
	bestMk := math.Inf(1)
	try := func(alloc []int) {
		if alloc == nil {
			return
		}
		s, err := e.listSchedule(alloc)
		if err != nil {
			return
		}
		if mk := s.Makespan(in); mk < bestMk {
			best, bestMk = cloneSchedule(s), mk
		}
	}
	// Subsample ~16 deadlines spread over the (deduplicated) grid.
	grid := g.grid
	step := len(grid)/16 + 1
	for k := 0; k < len(grid); k += step {
		if ent := e.eval(grid[k]); ent.ok {
			try(ent.alloc)
		}
	}
	if ent := e.eval(grid[len(grid)-1]); ent.ok {
		try(ent.alloc)
	}
	if alloc, _ := e.selectAllotment(o.Warm); alloc != nil {
		try(alloc)
	}
	full := intsBuf(&e.sc.full, n)
	for i, t := range in.Tasks {
		full[i] = t.MaxProcs()
	}
	try(full)
	// Level-proportional candidate: tasks at the same depth run together,
	// splitting the machine proportionally to their sequential works —
	// the fork-join overlap that uniform-deadline allotments cannot
	// express (all siblings must narrow simultaneously for overlap to
	// pay, so coordinate-wise refinement alone cannot reach it).
	try(g.levelProportional())
	if best == nil {
		return Result{Probes: e.probes, CacheHits: e.hits},
			errors.New("precedence: no feasible allotment")
	}

	// Local refinement: canonical allotments give every stage the same
	// deadline, but a DAG wants stage-dependent widths (wide while alone
	// on the machine, narrow under contention). Hill-climb per-task widths
	// from the best candidate, keeping any simulated improvement.
	alloc := intsBuf(&e.sc.climb, n)
	for i := range alloc {
		alloc[i] = 0
	}
	for _, p := range best.Placements {
		alloc[p.Task] = p.Width
	}
	for round := 0; round < 3; round++ {
		improved := false
		for i := 0; i < n; i++ {
			cur := alloc[i]
			for _, w := range []int{1, cur / 2, cur * 2, in.Tasks[i].MaxProcs()} {
				if w < 1 || w > in.Tasks[i].MaxProcs() || w == cur {
					continue
				}
				alloc[i] = w
				if s, err := e.listSchedule(alloc); err == nil && s.Makespan(in) < bestMk-1e-12 {
					best, bestMk = cloneSchedule(s), s.Makespan(in)
					cur = w
					improved = true
				}
				alloc[i] = cur
			}
		}
		if !improved {
			break
		}
	}
	return Result{Schedule: best, Probes: e.probes, CacheHits: e.hits}, nil
}

// Schedule is Solve with default options.
func (g *Graph) Schedule() (*schedule.Schedule, error) {
	r, err := g.Solve(Options{})
	return r.Schedule, err
}

// levelProportional builds the fork-join candidate: depth-layer the DAG,
// then split the machine within each layer proportionally to sequential
// work.
func (g *Graph) levelProportional() []int {
	in := g.in
	depth := make([]int, in.N())
	for _, i := range g.topo {
		for _, j := range g.succ[i] {
			if depth[i]+1 > depth[j] {
				depth[j] = depth[i] + 1
			}
		}
	}
	layerWork := map[int]float64{}
	for i, t := range in.Tasks {
		layerWork[depth[i]] += t.SeqTime()
	}
	alloc := make([]int, in.N())
	for i, t := range in.Tasks {
		p := int(float64(in.M) * t.SeqTime() / layerWork[depth[i]])
		if p < 1 {
			p = 1
		}
		if p > t.MaxProcs() {
			p = t.MaxProcs()
		}
		alloc[i] = p
	}
	return alloc
}

// runEv is one running task of the list-scheduling event simulation.
type runEv struct {
	t     float64
	task  int
	procs []int
}

// readySorter orders ready tasks by longest tail first, index-ordered
// within ties (a total order, so start decisions are deterministic). It
// lives in the Scratch so sort.Sort never allocates.
type readySorter struct {
	ids  []int
	tail []float64
}

func (s *readySorter) Len() int { return len(s.ids) }
func (s *readySorter) Less(a, b int) bool {
	x, y := s.ids[a], s.ids[b]
	if s.tail[x] != s.tail[y] {
		return s.tail[x] > s.tail[y]
	}
	return x < y
}
func (s *readySorter) Swap(a, b int) { s.ids[a], s.ids[b] = s.ids[b], s.ids[a] }

// mergeFree returns the ascending union of the free list a and a
// completed task's processor set b (both ascending, always disjoint),
// plus the buffer to hand to the next merge. The fast path — a's tail
// below b's head, which covers a drained machine and contiguous
// assignment — is a bulk append into a; the general path is a two-pointer
// merge into spare, after which the two backings swap roles. Both
// backings hold cap ≥ m, so neither path allocates.
func mergeFree(a, b, spare []int) (merged, nextSpare []int) {
	if len(b) == 0 {
		return a, spare
	}
	if len(a) == 0 || a[len(a)-1] < b[0] {
		return append(a, b...), spare
	}
	out := spare[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, a[:0]
}

// cloneSchedule deep-copies a scratch-owned schedule into caller-owned
// memory: the placements plus one backing array for all processor sets.
func cloneSchedule(s *schedule.Schedule) *schedule.Schedule {
	total := 0
	for _, p := range s.Placements {
		total += len(p.ProcSet)
	}
	backing := make([]int, 0, total)
	out := &schedule.Schedule{
		Algorithm:  s.Algorithm,
		Placements: make([]schedule.Placement, len(s.Placements)),
	}
	for i, p := range s.Placements {
		off := len(backing)
		backing = append(backing, p.ProcSet...)
		p.ProcSet = backing[off:len(backing):len(backing)]
		out.Placements[i] = p
	}
	return out
}

// listSchedule greedily list-schedules the rigid DAG induced by the
// allotment, longest tail first: a task is ready when all predecessors
// are done; among ready tasks, longest tail first; start when enough
// processors are free. All state lives on the Scratch, including the
// returned schedule — it is valid only until the next listSchedule call
// on the same scratch, and callers keeping it must cloneSchedule it.
func (e *evalCtx) listSchedule(alloc []int) (*schedule.Schedule, error) {
	g, sc, in := e.g, e.sc, e.g.in
	n := in.N()
	times := floatsBuf(&sc.times, n)
	for i := range times {
		times[i] = e.c.Time(i, alloc[i])
	}
	tail := floatsBuf(&sc.evtail, n)
	g.criticalPathInto(times, tail)

	preds := intsBuf(&sc.preds, n)
	copy(preds, g.preds)
	ready := intsBuf(&sc.ready, n)[:0]
	for i := 0; i < n; i++ {
		if preds[i] == 0 {
			ready = append(ready, i)
		}
	}
	// free is the ascending list of idle processors; spare is the second
	// backing buffer the release merge alternates with.
	free := intsBuf(&sc.free, in.M)
	for i := range free {
		free[i] = i
	}
	spare := intsBuf(&sc.mergeBuf, in.M)
	totalW := 0
	for _, w := range alloc {
		totalW += w
	}
	procsBacking := intsBuf(&sc.planProcs, totalW)[:0]
	if cap(sc.running) < n {
		sc.running = make([]runEv, 0, n)
	}
	running := sc.running[:0]

	remaining := n
	now := 0.0
	s := &sc.plan
	s.Algorithm = "dag-list"
	if cap(s.Placements) < n {
		s.Placements = make([]schedule.Placement, 0, n)
	}
	s.Placements = s.Placements[:0]
	for remaining > 0 {
		// Start ready tasks in tail order while processors suffice.
		sc.readySort.ids, sc.readySort.tail = ready, tail
		sort.Sort(&sc.readySort)
		kept := ready[:0]
		for _, i := range ready {
			w := alloc[i]
			if w > len(free) {
				kept = append(kept, i)
				continue
			}
			off := len(procsBacking)
			procsBacking = append(procsBacking, free[:w]...)
			procs := procsBacking[off:len(procsBacking):len(procsBacking)]
			free = free[:copy(free, free[w:])]
			s.Placements = append(s.Placements, schedule.Placement{
				Task: i, Start: now, Width: w, First: -1, ProcSet: procs,
			})
			running = append(running, runEv{t: now + times[i], task: i, procs: procs})
		}
		ready = kept
		if remaining == 0 {
			break
		}
		if len(running) == 0 {
			// Reachable only when some width exceeds the machine (a task
			// whose MaxProcs tops m): nothing runs, nothing fits.
			return nil, errors.New("precedence: deadlock")
		}
		// Advance to the earliest completion(s). The sweep consumes the
		// whole tie set at the minimum, merges released processors back
		// into the ascending free list and decrements successor counts —
		// all order-insensitive, and the ready list is re-sorted under
		// its total order at the top of the loop — so a linear min scan
		// and a sorted merge replace the old completion-time and free-list
		// sorts without moving a single start decision.
		next := running[0].t
		for _, ev := range running[1:] {
			if ev.t < next {
				next = ev.t
			}
		}
		now = next
		still := running[:0]
		for _, ev := range running {
			if ev.t <= next {
				free, spare = mergeFree(free, ev.procs, spare)
				remaining--
				for _, j := range g.succ[ev.task] {
					if preds[j]--; preds[j] == 0 {
						ready = append(ready, j)
					}
				}
			} else {
				still = append(still, ev)
			}
		}
		running = still
	}
	sc.running = running[:0]
	return s, nil
}
