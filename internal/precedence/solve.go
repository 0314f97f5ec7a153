// The compiled DAG solve path. The crossover allotment search and the
// candidate portfolio of Schedule re-evaluate (γ(λ), times, area, CP) at
// many deadlines; this file resolves those evaluations by binary search
// over the instance's compiled time rows against one exact bound per
// deadline (instance.Compiled.Bound) and keeps the derived tables in the
// dual search's λ-range index (instance.Segments), keyed per graph, so
// repeat probes — the bisection endgame, the portfolio, every solve of a lineage that shares a Scratch — pay zero
// re-derivation. The tables answer exactly what the task structs would (flattened copies
// of times and works, a bound float-exact against task.Leq); the
// test-only refEval and the golden suite hold the path to that.
package precedence

import (
	"errors"
	"math"
	"slices"
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
	// path keeps its working memory — its λ-range index of candidate
	// evaluations and the list-scheduling buffers — in an auxiliary slot
	// of the core Scratch (core.Scratch.SetAux), so the engine's
	// per-worker pooling and the warm lineage's scratch pinning extend to
	// DAG solves unchanged, including DropCompiled eviction when a
	// lineage retires its previous residual's tables. nil allocates a
	// private scratch per call.
	Scratch *core.Scratch
	// Warm seeds the crossover search from a previous solve of the same
	// lineage: the prior feasibility floor and crossover deadline
	// (core.WarmStart.Floor / .AcceptedLambda). Advisory only — each seeded
	// boundary is verified by real evaluations and falls back to the full
	// binary search on mispredict, so a stale or garbage seed wastes probes,
	// never correctness; the result is bit-identical to a cold solve. On
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
	// CacheHits counts the subset of Probes the λ-segment cache already
	// held an answer for: an allotment of that Σγ, or the verdict that some
	// task cannot meet the deadline. Unlike Probes it depends on cross-solve
	// scratch state, so consumers treat it the way Synthesized is treated
	// everywhere else: a cost annotation, never the solution's identity.
	CacheHits int
}

// dagEntry is one candidate evaluation: an index entry tagged with the
// graph's edge hash, so two graphs over one *instance.Compiled do not share
// a critical path, holding the times and CP; the area Σw(γ)/m is its Work
// over m. The tag is the hash alone: unlike the engine's caches, which
// compare every word before they answer, this one still trusts 64 bits,
// so a graph crafted onto another's edge hash over the same tables on the
// same scratch would read the other's critical path.
type dagEntry = instance.Segment[dagTables]

type dagTables struct {
	times []float64
	cp    float64
}

// Scratch is the reusable working memory of the DAG solve path: the
// λ-range index of candidate evaluations plus the buffers of the
// critical-path and list-scheduling inner loops. Not safe for concurrent
// use — it rides a per-worker core.Scratch via the aux slot (see
// Options.Scratch).
type Scratch struct {
	seg instance.Segments[dagTables]

	times   []float64
	evtail  []float64
	start   []float64
	preds   []int
	ready   []int
	free    []int
	spare   []int
	winner  []int
	cand    []int
	best    []int
	tried   []int
	running []runEv
	ends    []runEnd

	// plan and planProcs back the scratch schedule listSchedule builds
	// into; the one schedule a solve returns is cloned out of them.
	plan      schedule.Schedule
	planProcs []int
}

// DropCompiled forgets every evaluation derived from c, under every graph:
// the core.AuxCache contract, which core.Scratch.DropCompiled forwards.
func (sc *Scratch) DropCompiled(c *instance.Compiled) { sc.seg.Drop(c) }

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

func (g *Graph) evalContext(o Options) evalCtx {
	e := evalCtx{g: g, c: o.Compiled, sc: auxScratch(o.Scratch)}
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

// eval derives (γ(λ), times, Σw/m, CP) for a candidate deadline; OK is
// false when some task cannot meet it. The entry is valid until the next
// eval on the Scratch, so callers copy what they keep (selectAllotment its
// winner; portfolio scores a candidate before asking for the next).
func (e *evalCtx) eval(lambda float64) *dagEntry {
	e.probes++
	ent, fresh := e.sc.seg.Lookup(e.c, e.g.edgeHash, lambda)
	if !fresh {
		e.hits++
	} else if ent.OK {
		n := len(ent.Gamma)
		times := floatsBuf(&ent.Val.times, n)
		for i, gm := range ent.Gamma {
			times[i] = e.c.Time(i, gm)
		}
		ent.Val.cp = e.g.criticalPathInto(times, floatsBuf(&e.sc.evtail, n))
	}
	return ent
}

// area is the normalised area Σw(γ)/m of a feasible entry.
func (e *evalCtx) area(ent *dagEntry) float64 { return ent.Work / float64(e.g.in.M) }

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
		return e.eval(cands[k]).OK
	})
	rest := cands[from:]
	cross := searchSeeded(len(rest), seedCross-from, func(k int) bool {
		ent := e.eval(rest[k])
		return ent.OK && ent.Val.cp >= e.area(ent)
	})
	var alloc []int
	bestL := math.Inf(1)
	for _, k := range []int{cross - 1, cross, cross + 1} {
		if k < 0 || k >= len(rest) {
			continue
		}
		if ent := e.eval(rest[k]); ent.OK && math.Max(e.area(ent), ent.Val.cp) < bestL {
			alloc = intsBuf(&e.sc.winner, len(ent.Gamma))
			copy(alloc, ent.Gamma)
			bestL = math.Max(e.area(ent), ent.Val.cp)
		}
	}
	if warm != nil && alloc != nil {
		if from < len(cands) {
			warm.Floor = cands[from]
		}
		if cross < len(rest) {
			warm.AcceptedLambda = rest[cross]
		}
	}
	return alloc, bestL
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
	out := s.Clone()
	out.Algorithm = "dag-crossover"
	r.Schedule = out
	r.Probes, r.CacheHits = e.probes, e.hits
	return r, nil
}

// Solve runs the two-phase heuristic: candidate allotments from the
// canonical family (the L-minimiser of the crossover search, the
// full-machine allotment, and a logarithmic sample of the deduped λ
// grid) are each list-scheduled greedily in longest-tail order, the best
// one wins, and a per-task width hill-climb refines it. Trying the
// whole family matters: chain-dominated graphs want wide allotments
// (critical path rules) while wide graphs want narrow ones (area rules),
// and no single L measure captures both. A candidate or a climb move is
// only ever asked for its makespan (score); the solve tracks the best
// allotment and builds placements and processor sets once, for the
// winner. The result is a valid non-contiguous schedule; the validator
// runs with contiguity off, matching rigid.List.
func (g *Graph) Solve(o Options) (Result, error) {
	e := g.evalContext(o)
	defer e.release()
	best, mk := e.portfolio(o.Warm)
	// Only the portfolio evaluates deadlines: the counts are final here.
	r := Result{Probes: e.probes, CacheHits: e.hits}
	if best == nil {
		return r, errors.New("precedence: no feasible allotment")
	}
	e.climb(best, mk, e.score)
	s, err := e.listSchedule(best)
	if err != nil {
		return r, err
	}
	r.Schedule = s.Clone()
	return r, nil
}

// portfolio scores the candidate allotments — a logarithmic sample of the
// deduped λ grid, the crossover search's L-minimiser, the full-machine
// allotment and the level-proportional one — and returns the best
// (Scratch-owned) with its makespan; the first of equals wins. nil when no
// candidate can be scheduled.
func (e *evalCtx) portfolio(warm *core.WarmStart) ([]int, float64) {
	g, in, sc := e.g, e.g.in, e.sc
	n := in.N()
	best := intsBuf(&sc.best, n)
	bestMk := math.Inf(1)
	try := func(alloc []int) {
		if mk, ok := e.score(alloc, bestMk); ok {
			copy(best, alloc)
			bestMk = mk
		}
	}
	// Two grid samples inside one λ-segment are the same cached entry, and
	// a repeated allotment can only tie the incumbent: score it once.
	tried := sc.tried[:0]
	trySeg := func(ent *dagEntry) {
		if ent.OK && !slices.Contains(tried, ent.Sum) {
			tried = append(tried, ent.Sum)
			try(ent.Gamma)
		}
	}
	// Subsample ~16 deadlines spread over the (deduplicated) grid.
	grid := g.grid
	step := len(grid)/16 + 1
	for k := 0; k < len(grid); k += step {
		trySeg(e.eval(grid[k]))
	}
	trySeg(e.eval(grid[len(grid)-1]))
	sc.tried = tried[:0]
	if alloc, _ := e.selectAllotment(warm); alloc != nil {
		try(alloc)
	}
	full := intsBuf(&sc.cand, n)
	for i, t := range in.Tasks {
		full[i] = t.MaxProcs()
	}
	try(full)
	// Level-proportional candidate: tasks at the same depth run together,
	// splitting the machine proportionally to their sequential works —
	// the fork-join overlap that uniform-deadline allotments cannot
	// express (all siblings must narrow simultaneously for overlap to
	// pay, so coordinate-wise refinement alone cannot reach it).
	try(e.levelProportional())
	if math.IsInf(bestMk, 1) {
		return nil, bestMk
	}
	return best, bestMk
}

// climb is the local refinement: canonical allotments give every stage the
// same deadline, but a DAG wants stage-dependent widths (wide while alone
// on the machine, narrow under contention). It hill-climbs per-task widths
// of alloc in place from makespan mk, keeping any move score says beats
// the incumbent by more than 1e-12, over at most three passes of the tasks.
//
// It never asks score a question whose answer it holds. A move is an
// allotment held against an incumbent, and the incumbent only improves: a
// width rejected earlier in the same visit ({1, cur/2, …} repeats 1 for
// cur ∈ {2, 3} and MaxProcs for 2·cur = MaxProcs) stays rejected, and so do
// the rejections of the last accepting visit when its task comes round
// again with no accept in between (held). And once n consecutive visits
// pass without an accept, every task has been tried against exactly the
// current allotment and incumbent, so every remaining visit of the three
// passes would repeat a rejection: the climb stops there. score is a
// parameter so tests can count and cross-check the questions asked.
func (e *evalCtx) climb(alloc []int, mk float64, score func([]int, float64) (float64, bool)) {
	n := len(alloc)
	var held [4]int // the last accepting visit's rejections, of task heldFor
	nh, heldFor := 0, -1
	quiet := 0 // consecutive visits without an accept
	for visit := 0; visit < 3*n && quiet < n; visit++ {
		i := visit % n
		cur, maxP := alloc[i], e.c.MaxProcs(i)
		var rejected [4]int
		nr := 0
		known := held[:nh]
		if i != heldFor {
			known = nil
		}
		quiet++
		for _, w := range [4]int{1, cur / 2, cur * 2, maxP} {
			if w < 1 || w > maxP || w == cur ||
				slices.Contains(rejected[:nr], w) || slices.Contains(known, w) {
				continue
			}
			alloc[i] = w
			if got, ok := score(alloc, mk-1e-12); ok {
				mk, cur, quiet = got, w, 0
			} else {
				rejected[nr] = w
				nr++
			}
			alloc[i] = cur
		}
		if quiet == 0 {
			held, nh, heldFor = rejected, nr, i
		}
	}
}

// levelProportional builds the fork-join candidate: depth-layer the DAG,
// then split the machine within each layer proportionally to sequential
// work. The depths and per-depth works borrow the simulation's preds and
// times buffers, which are dead between two scores.
func (e *evalCtx) levelProportional() []int {
	g, in, sc := e.g, e.g.in, e.sc
	n := in.N()
	depth := intsBuf(&sc.preds, n)
	clear(depth)
	for _, i := range g.topo {
		for _, j := range g.succ[i] {
			if depth[i]+1 > depth[j] {
				depth[j] = depth[i] + 1
			}
		}
	}
	layerWork := floatsBuf(&sc.times, n) // depths are below n
	clear(layerWork)
	for i, t := range in.Tasks {
		layerWork[depth[i]] += t.SeqTime()
	}
	alloc := intsBuf(&sc.cand, n)
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

// runEv is one running task of the materialising simulation; runEnd is
// the same for the count-only one, which has no processor set to carry.
type runEv struct {
	t     float64
	task  int
	procs []int
}

type runEnd struct {
	t    float64
	task int
}

// readyInsert puts task j into the ready list, which is kept in the order
// start decisions are made in: longest tail first, index-ordered within
// ties — a total order, so the list is the same whatever order tasks were
// released in. Tasks leave the list from anywhere (whoever fits starts) but
// the survivors keep their relative order, so inserting the newly released
// ones is all the sorting an event needs.
func readyInsert(ready []int, tail []float64, j int) []int {
	k := len(ready)
	ready = append(ready, j)
	for ; k > 0; k-- {
		p := ready[k-1]
		if tail[p] > tail[j] || (tail[p] == tail[j] && p < j) {
			break
		}
		ready[k] = p
	}
	ready[k] = j
	return ready
}

// simReady sets up the precedence side of an event simulation on the
// Scratch: the live predecessor counts, and the source tasks in ready
// order under the given tails.
func (e *evalCtx) simReady(tail []float64) (preds, ready []int) {
	n := len(tail)
	preds = intsBuf(&e.sc.preds, n)
	copy(preds, e.g.preds)
	ready = intsBuf(&e.sc.ready, n)[:0]
	for i, d := range preds {
		if d == 0 {
			ready = readyInsert(ready, tail, i)
		}
	}
	return preds, ready
}

// pruneGuard is the relative slack reaches leaves between a lower bound
// and the cutoff it is held against.
const pruneGuard = 1e-9

// reaches reports whether lb, a lower bound on a simulated makespan mk
// that was summed in another order than the simulation sums, proves
// mk ≥ cutoff. It is the one place an inexact bound is compared.
//
// Soundness. Write u = 2⁻⁵³. Every term is non-negative, so k rounded
// additions keep a sum within a factor (1 ± u)^k of its exact value.
//
//   - now + tail[i], and the critical path, its now = 0 case. tail adds
//     the times of the longest chain from i right to left. The simulation
//     adds the same times left to right, fl(fl(now+t₀)+t₁)…: a successor
//     never starts before its predecessor's float end, and rounded addition
//     is monotone, so mk is at least that sum. Two orders of at most n+1
//     additions over one exact value: lb ≤ mk·(1+u)^(2n+2).
//   - Σw/m. At most m processors are ever busy, so m·mk ≥ Σ w·(end − start);
//     a float end is at least (start + t)(1 − u), so end − start ≥ t − u·mk
//     and the exact Σ w·t/m is at most mk·(1 + n·u). The float sum is n+1
//     more roundings from it.
//
// Either way lb·(1 − 1e-9) ≤ mk for any n below 10⁶ — the guard sits six
// orders of magnitude above n·u — so lb·(1 − pruneGuard) ≥ cutoff implies
// mk ≥ cutoff: a prune only withholds a makespan the caller's strict
// `mk < cutoff` would have turned down, and never changes which allotment
// wins. A guard of 0 would let the last-bit disagreement between the two
// summation orders prune a makespan one ulp below the cutoff
// (TestPruneNeverChangesTheWinner has the chain).
func reaches(lb, cutoff float64) bool { return lb*(1-pruneGuard) >= cutoff }

// score answers the only question a candidate or a climb move is asked:
// the makespan of alloc's greedy list schedule (see listSchedule), and
// whether it is below cutoff. It returns (makespan, true) exactly when the
// schedule exists and its makespan < cutoff — bit-equal to listSchedule's
// Schedule.Makespan, since both take max(start + time) over the same
// floats — and (0, false) otherwise, as early as a lower bound allows:
// Σw/m and the critical path before the first event, then at every start
// the task's own end (exact) and start + tail (through reaches).
//
// A start decision compares a width with how many processors are idle,
// never with which, and a completion frees a count; so the simulation
// carries an int where listSchedule carries the free list, and builds no
// placement. start[i] records the decisions for the tests that hold the
// two simulations to each other.
func (e *evalCtx) score(alloc []int, cutoff float64) (float64, bool) {
	g, sc := e.g, e.sc
	n := g.in.N()
	times := floatsBuf(&sc.times, n)
	var work float64
	for i := range times {
		times[i] = e.c.Time(i, alloc[i])
		work += e.c.Work(i, alloc[i])
	}
	if reaches(work/float64(g.in.M), cutoff) {
		return 0, false
	}
	tail := floatsBuf(&sc.evtail, n)
	if reaches(g.criticalPathInto(times, tail), cutoff) {
		return 0, false
	}
	preds, ready := e.simReady(tail)
	start := floatsBuf(&sc.start, n)
	if cap(sc.ends) < n {
		sc.ends = make([]runEnd, 0, n)
	}
	running := sc.ends[:0]

	free, remaining := g.in.M, n
	now, mk := 0.0, 0.0
	for remaining > 0 {
		kept := ready[:0]
		for _, i := range ready {
			if alloc[i] > free {
				kept = append(kept, i)
				continue
			}
			end := now + times[i]
			if end >= cutoff || reaches(now+tail[i], cutoff) {
				return 0, false
			}
			free -= alloc[i]
			start[i] = now
			if end > mk {
				mk = end
			}
			running = append(running, runEnd{t: end, task: i})
		}
		ready = kept
		if len(running) == 0 {
			return 0, false // deadlock: see listSchedule
		}
		now = running[0].t
		for _, ev := range running[1:] {
			if ev.t < now {
				now = ev.t
			}
		}
		still := running[:0]
		for _, ev := range running {
			if ev.t > now {
				still = append(still, ev)
				continue
			}
			free += alloc[ev.task]
			remaining--
			for _, j := range g.succ[ev.task] {
				if preds[j]--; preds[j] == 0 {
					ready = readyInsert(ready, tail, j)
				}
			}
		}
		running = still
	}
	return mk, true
}

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

// listSchedule greedily list-schedules the rigid DAG induced by the
// allotment, longest tail first: a task is ready when all predecessors
// are done; among ready tasks, longest tail first; start when enough
// processors are free. It is the materialising twin of score — the same
// event simulation, carrying the ascending list of idle processors and
// building placements with their processor sets — and runs once per
// solve, on the allotment that won. All state lives on the Scratch,
// including the returned schedule — it is valid only until the next
// listSchedule call on the same scratch, and callers keeping it must
// Clone it.
func (e *evalCtx) listSchedule(alloc []int) (*schedule.Schedule, error) {
	g, sc, in := e.g, e.sc, e.g.in
	n := in.N()
	times := floatsBuf(&sc.times, n)
	for i := range times {
		times[i] = e.c.Time(i, alloc[i])
	}
	tail := floatsBuf(&sc.evtail, n)
	g.criticalPathInto(times, tail)
	preds, ready := e.simReady(tail)

	// free is the ascending list of idle processors; spare is the second
	// backing buffer the release merge alternates with.
	free := intsBuf(&sc.free, in.M)
	for i := range free {
		free[i] = i
	}
	spare := intsBuf(&sc.spare, in.M)
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
		if len(running) == 0 {
			// Reachable only when some width exceeds the machine (a task
			// whose MaxProcs tops m): nothing runs, nothing fits.
			return nil, errors.New("precedence: deadlock")
		}
		// Advance to the earliest completion(s). The sweep consumes the
		// whole tie set at the minimum, merges released processors back
		// into the ascending free list and decrements successor counts —
		// all order-insensitive, since readyInsert keeps the ready list
		// under its total order whatever order tasks are released in.
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
						ready = readyInsert(ready, tail, j)
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
