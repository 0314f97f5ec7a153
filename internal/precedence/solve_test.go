package precedence

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// testGraphs builds the three classic DAG shapes over an instance: chain,
// binary out-tree, dense random.
func testGraphs(t *testing.T, in *instance.Instance, seed int64) []*Graph {
	t.Helper()
	gs := climbShapes(t, in, seed)
	return []*Graph{gs["chain"], gs["out-tree"], gs["random-0.3"]}
}

// evalsEqual compares two candidate evaluations bit for bit: allotment,
// times, work (and so area) and critical path.
func evalsEqual(a, b *dagEntry) bool {
	if a.OK != b.OK {
		return false
	}
	if !a.OK {
		return true
	}
	return a.Sum == b.Sum && reflect.DeepEqual(a.Gamma, b.Gamma) &&
		reflect.DeepEqual(a.Val.times, b.Val.times) &&
		math.Float64bits(a.Work) == math.Float64bits(b.Work) &&
		math.Float64bits(a.Val.cp) == math.Float64bits(b.Val.cp)
}

// refEval is the reference the compiled evaluation answers to — the sole
// surviving task-struct evaluator: it derives (γ(λ), times, Σw/m, CP)
// straight from the task profiles, the way the pre-compiled implementation
// did, with no tables, no thresholds and no cache.
func refEval(g *Graph, lambda float64) *dagEntry {
	in := g.in
	n := in.N()
	ent := &dagEntry{Gamma: make([]int, n), Val: dagTables{times: make([]float64, n)}, OK: true}
	for i, t := range in.Tasks {
		gm, ok := t.Canonical(lambda)
		if !ok {
			ent.OK = false
			return ent
		}
		ent.Gamma[i] = gm
		ent.Val.times[i] = t.Time(gm)
		ent.Work += t.Work(gm)
		ent.Sum += gm
	}
	ent.Val.cp = g.criticalPathInto(ent.Val.times, make([]float64, n))
	return ent
}

// TestCompiledEvalMatchesReference is the property the whole compiled DAG
// path rests on: at every candidate deadline of every graph, the
// segment-cached compiled evaluation equals the task-struct reference
// (refEval) bit for bit — allotment, times, area and critical path. A
// second compiled pass must resolve entirely from the segment cache and
// still agree.
func TestCompiledEvalMatchesReference(t *testing.T) {
	for name, gen := range instance.Families() {
		for seed := int64(1); seed <= 4; seed++ {
			in := gen(seed, 12, 6)
			for gi, g := range testGraphs(t, in, seed) {
				hot := &evalCtx{g: g, c: instance.Compile(in), sc: &Scratch{}}
				for _, lambda := range g.cands {
					want := refEval(g, lambda)
					if got := hot.eval(lambda); !evalsEqual(got, want) {
						t.Fatalf("%s/%d graph %d λ=%v: compiled %+v != reference %+v",
							name, seed, gi, lambda, got, want)
					}
				}
				probes, hits := hot.probes, hot.hits
				for _, lambda := range g.cands {
					if got := hot.eval(lambda); !evalsEqual(got, refEval(g, lambda)) {
						t.Fatalf("%s/%d graph %d λ=%v: cached eval drifted", name, seed, gi, lambda)
					}
				}
				if fresh := (hot.probes - probes) - (hot.hits - hits); fresh != 0 {
					t.Fatalf("%s/%d graph %d: second pass paid %d fresh evaluations",
						name, seed, gi, fresh)
				}
				if hot.hits != hits+len(g.cands) {
					t.Fatalf("%s/%d graph %d: second pass hits %d, want %d",
						name, seed, gi, hot.hits-hits, len(g.cands))
				}
			}
		}
	}
}

// TestSegmentCacheIsolatesGraphs: two DAGs over the same instance share
// the compiled tables and the scratch; the edge hash in the segment key
// must keep their critical paths apart.
func TestSegmentCacheIsolatesGraphs(t *testing.T) {
	in := instance.Mixed(3, 10, 5)
	c := instance.Compile(in)
	sc := &Scratch{}
	gs := testGraphs(t, in, 3)
	chain, tree := gs[0], gs[1]
	hotChain := &evalCtx{g: chain, c: c, sc: sc}
	hotTree := &evalCtx{g: tree, c: c, sc: sc}
	for _, lambda := range chain.cands {
		if got := hotChain.eval(lambda); !evalsEqual(got, refEval(chain, lambda)) {
			t.Fatalf("chain λ=%v diverged", lambda)
		}
		if got := hotTree.eval(lambda); !evalsEqual(got, refEval(tree, lambda)) {
			t.Fatalf("tree λ=%v poisoned by chain's cache entry", lambda)
		}
	}
	// DropCompiled must evict every entry keyed by these tables, under
	// both graphs.
	if len(sc.seg.Ranges(c, chain.edgeHash)) == 0 || len(sc.seg.Ranges(c, tree.edgeHash)) == 0 {
		t.Fatal("a graph holds no entries")
	}
	sc.DropCompiled(c)
	if st := sc.seg.Stats(); st.Entries != 0 || st.Lists != 0 {
		t.Fatalf("%d entries in %d lists survived DropCompiled", st.Entries, st.Lists)
	}
}

// TestSegmentCacheRecyclesEntries: evicted entries — by DropCompiled and by
// the wholesale clear at the cap — are handed out again instead of being
// abandoned, a recycled entry answers for its new segment exactly like a
// fresh one, the hits are the flat map's across every clear, and an
// infeasible deadline is answered by the index's verdict, never by an
// entry's stale tables.
func TestSegmentCacheRecyclesEntries(t *testing.T) {
	sc := &Scratch{}
	ref := flatRef{}
	fresh := 0
	for seed := int64(1); fresh <= 3*instance.SegmentCap; seed++ {
		in := instance.Mixed(seed, 12, 6)
		g := testGraphs(t, in, seed)[1]
		e := &evalCtx{g: g, c: instance.Compile(in), sc: sc}
		// A cold pass and a hot one, so a clear mid-instance shows in the hits.
		for pass := 0; pass < 2; pass++ {
			for _, lambda := range g.cands {
				hits := e.hits
				got := e.eval(lambda)
				want, hit := ref.eval(g, e.c, lambda)
				if !evalsEqual(got, want) {
					t.Fatalf("seed %d λ=%v: entry (recycled or not) != reference", seed, lambda)
				}
				if (e.hits > hits) != hit {
					t.Fatalf("seed %d pass %d λ=%v: hit %v, flat map %v", seed, pass, lambda, e.hits > hits, hit)
				}
				if n := sc.seg.Stats().Entries; n > instance.SegmentCap {
					t.Fatalf("cache holds %d entries, cap %d", n, instance.SegmentCap)
				}
			}
		}
		fresh += e.probes - e.hits
		if seed%2 == 0 {
			before := sc.seg.Stats()
			sc.DropCompiled(e.c)
			ref.drop(e.c)
			after := sc.seg.Stats()
			if dropped := before.Entries - after.Entries; dropped == 0 || after.FreeEntries != before.FreeEntries+dropped {
				t.Fatalf("seed %d: DropCompiled evicted %d entries, free list grew by %d",
					seed, dropped, after.FreeEntries-before.FreeEntries)
			}
		}
	}
	// Everything ever allocated is either cached or awaiting reuse, and a
	// new entry is only made when none awaits: the population is bounded by
	// the cap however many segments went through.
	if st := sc.seg.Stats(); st.Entries+st.FreeEntries > instance.SegmentCap {
		t.Fatalf("%d entries alive after %d fresh evaluations, cap %d", st.Entries+st.FreeEntries, fresh, instance.SegmentCap)
	}

	// An infeasible deadline on a Scratch whose free list holds entries
	// with tables: the answer is the verdict, with no tables to read.
	in := instance.Mixed(1, 12, 6)
	g := testGraphs(t, in, 1)[0]
	e := &evalCtx{g: g, c: instance.Compile(in), sc: sc}
	if sc.seg.Stats().FreeEntries == 0 {
		t.Fatal("no recycled entry awaits reuse")
	}
	for _, lambda := range []float64{g.cands[0] / 2, g.cands[len(g.cands)-1], g.cands[0] / 2} {
		want := refEval(g, lambda)
		ent := e.eval(lambda)
		if !evalsEqual(ent, want) {
			t.Fatalf("λ=%v: entry != reference", lambda)
		}
		if !ent.OK && (ent.Gamma != nil || ent.Val.times != nil) {
			t.Fatalf("infeasible deadline: tables %v/%v", ent.Gamma, ent.Val.times)
		}
	}
}

// TestPrivateTablesLeaveScratch: a solve that compiled its own tables
// must not leave their segment entries in a borrowed scratch — nothing can
// look them up again — while caller-supplied tables stay hot.
func TestPrivateTablesLeaveScratch(t *testing.T) {
	in := instance.Mixed(3, 14, 7)
	cs := core.NewScratch()
	for _, g := range testGraphs(t, in, 3) {
		for _, run := range []func(Options) (Result, error){g.Solve, g.SolveCrossover} {
			if _, err := run(Options{Scratch: cs}); err != nil {
				t.Fatal(err)
			}
			if n := ScratchOf(cs).seg.Stats().Entries; n != 0 {
				t.Fatalf("%d segment entries of private tables left in the scratch", n)
			}
		}
	}
	c := instance.Compile(in)
	if _, err := testGraphs(t, in, 3)[0].Solve(Options{Compiled: c, Scratch: cs}); err != nil {
		t.Fatal(err)
	}
	if ScratchOf(cs).seg.Stats().Entries == 0 {
		t.Fatal("caller-supplied tables were evicted from the caller's scratch")
	}
}

// TestSolveCompiledMatchesReference: the segment cache must be invisible in
// the full heuristic and the plain crossover solve alike. On one scratch
// shared by an instance's graphs, a cold solve, a hot re-solve (which must
// actually hit the cache) and a self-compiled solve all return what a
// solve on a fresh private scratch returns, schedule and probe count.
func TestSolveCompiledMatchesReference(t *testing.T) {
	for name, gen := range instance.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			in := gen(seed, 14, 7)
			c := instance.Compile(in)
			// Shared by the instance's three graphs and both solvers, and
			// small enough to stay under the cache's wholesale clear, which
			// would void the all-hits assertion below.
			cs := core.NewScratch()
			for gi, g := range testGraphs(t, in, seed) {
				for _, solve := range []struct {
					tag string
					run func(Options) (Result, error)
				}{
					{"solve", g.Solve},
					{"crossover", g.SolveCrossover},
				} {
					ref, refErr := solve.run(Options{Compiled: c}) // fresh private scratch
					cold, coldErr := solve.run(Options{Compiled: c, Scratch: cs})
					hot, hotErr := solve.run(Options{Compiled: c, Scratch: cs})
					auto, autoErr := solve.run(Options{Scratch: cs}) // self-compiled
					if (refErr == nil) != (coldErr == nil) || (refErr == nil) != (hotErr == nil) ||
						(refErr == nil) != (autoErr == nil) {
						t.Fatalf("%s/%d graph %d %s: error disagreement %v/%v/%v/%v",
							name, seed, gi, solve.tag, refErr, coldErr, hotErr, autoErr)
					}
					if refErr != nil {
						continue
					}
					// Probes is a property of the search alone: identical
					// cold or hot, cached or not.
					for tag, got := range map[string]*Result{"cold": &cold, "hot": &hot, "auto": &auto} {
						if !reflect.DeepEqual(got.Schedule, ref.Schedule) {
							t.Fatalf("%s/%d graph %d %s: %s schedule != fresh-scratch\n got %+v\nwant %+v",
								name, seed, gi, solve.tag, tag, got.Schedule, ref.Schedule)
						}
						if got.Probes != ref.Probes {
							t.Fatalf("%s/%d graph %d %s: %s probes %d != fresh-scratch %d",
								name, seed, gi, solve.tag, tag, got.Probes, ref.Probes)
						}
					}
					if hot.CacheHits != hot.Probes {
						t.Fatalf("%s/%d graph %d %s: hot re-solve paid %d fresh evaluations (%d probes, %d cache hits)",
							name, seed, gi, solve.tag, hot.Probes-hot.CacheHits, hot.Probes, hot.CacheHits)
					}
				}
			}
		}
	}
}

// TestWarmMatchesCold: a warm-seeded crossover solve must return the
// exact cold schedule — the seed only changes how many evaluations are
// paid — and a garbage seed must fall back, not corrupt. Warm runs use a
// fresh scratch so the comparison isolates the seed from the segment
// cache.
func TestWarmMatchesCold(t *testing.T) {
	for name, gen := range instance.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			in := gen(seed, 14, 7)
			for gi, g := range testGraphs(t, in, seed) {
				c := instance.Compile(in)
				cold, coldErr := g.SolveCrossover(Options{Compiled: c, Scratch: core.NewScratch()})

				// Prime a warm seed with one solve, then re-solve warm.
				warm := &core.WarmStart{}
				if _, err := g.SolveCrossover(Options{Compiled: c, Scratch: core.NewScratch(), Warm: warm}); (err == nil) != (coldErr == nil) {
					t.Fatalf("%s/%d graph %d: priming error %v vs cold %v", name, seed, gi, err, coldErr)
				}
				hot, hotErr := g.SolveCrossover(Options{Compiled: c, Scratch: core.NewScratch(), Warm: warm})
				if (coldErr == nil) != (hotErr == nil) {
					t.Fatalf("%s/%d graph %d: warm error %v vs cold %v", name, seed, gi, hotErr, coldErr)
				}
				if coldErr != nil {
					continue
				}
				if !reflect.DeepEqual(hot.Schedule, cold.Schedule) {
					t.Fatalf("%s/%d graph %d: warm schedule != cold", name, seed, gi)
				}
				if hot.Probes > cold.Probes {
					t.Fatalf("%s/%d graph %d: warm paid %d probes, cold %d — seed made it worse",
						name, seed, gi, hot.Probes, cold.Probes)
				}

				// Garbage seeds: verification must reject them and fall back
				// to the full search, bit-identically.
				for _, bad := range []*core.WarmStart{
					{Floor: -5, AcceptedLambda: -5},
					{Floor: math.Inf(1), AcceptedLambda: math.Inf(1)},
					{Floor: 1e-9, AcceptedLambda: 1e308},
				} {
					got, err := g.SolveCrossover(Options{Compiled: c, Scratch: core.NewScratch(), Warm: bad})
					if err != nil {
						t.Fatalf("%s/%d graph %d: garbage seed errored: %v", name, seed, gi, err)
					}
					if !reflect.DeepEqual(got.Schedule, cold.Schedule) {
						t.Fatalf("%s/%d graph %d: garbage seed changed the schedule", name, seed, gi)
					}
				}
			}
		}
	}
}

// refSolve is the reference Solve answers to: the heuristic as it stood
// before candidates were scored on processor counts. Every candidate and
// every climb move is materialised by listSchedule and read back through
// Schedule.Makespan, each improvement is cloned, the climb runs its three
// fixed rounds (stopping only after a round without an accept) — no prune,
// no dedup, no settled stop.
func refSolve(g *Graph, o Options) (Result, error) {
	e := g.evalContext(o)
	defer e.release()
	in := g.in
	n := in.N()
	var best *schedule.Schedule
	bestMk := math.Inf(1)
	try := func(alloc []int) {
		s, err := e.listSchedule(alloc)
		if err != nil {
			return
		}
		if mk := s.Makespan(in); mk < bestMk {
			best, bestMk = s.Clone(), mk
		}
	}
	grid := g.grid
	step := len(grid)/16 + 1
	for k := 0; k < len(grid); k += step {
		if ent := e.eval(grid[k]); ent.OK {
			try(ent.Gamma)
		}
	}
	if ent := e.eval(grid[len(grid)-1]); ent.OK {
		try(ent.Gamma)
	}
	if alloc, _ := e.selectAllotment(o.Warm); alloc != nil {
		try(alloc)
	}
	full := make([]int, n)
	for i, t := range in.Tasks {
		full[i] = t.MaxProcs()
	}
	try(full)
	try(e.levelProportional())
	if best == nil {
		return Result{Probes: e.probes, CacheHits: e.hits},
			errors.New("precedence: no feasible allotment")
	}
	alloc := make([]int, n)
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
					best, bestMk = s.Clone(), s.Makespan(in)
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

// schedulesBitEqual compares two schedules placement by placement, start
// times by bits.
func schedulesBitEqual(a, b *schedule.Schedule) bool {
	if a.Algorithm != b.Algorithm || len(a.Placements) != len(b.Placements) {
		return false
	}
	for k, p := range a.Placements {
		q := b.Placements[k]
		if p.Task != q.Task || p.Width != q.Width || p.First != q.First ||
			math.Float64bits(p.Start) != math.Float64bits(q.Start) ||
			!reflect.DeepEqual(p.ProcSet, q.ProcSet) {
			return false
		}
	}
	return true
}

// climbSizes are the n×m cells the climb tests sweep: the golden size, the
// serving bench's, a long narrow one and a wide machine.
var climbSizes = [][2]int{{14, 7}, {16, 8}, {30, 8}, {40, 64}}

// climbShapes builds the DAG shapes of the climb tests over one instance:
// chain, binary out-tree, dense and sparse random, and no edges at all.
func climbShapes(t *testing.T, in *instance.Instance, seed int64) map[string]*Graph {
	t.Helper()
	n := in.N()
	outTree, err := OutTreeEdges(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	gs := map[string]*Graph{}
	for name, edges := range map[string][][]int{
		"chain":       ChainEdges(n),
		"out-tree":    outTree,
		"random-0.3":  RandomEdges(seed, n, 0.3),
		"random-0.05": RandomEdges(seed, n, 0.05),
		"empty":       make([][]int, n),
	} {
		g, err := NewGraph(in, edges)
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = g
	}
	return gs
}

// forEachClimbCell runs f on every (family, seed, size, shape) cell of the
// climb tests.
func forEachClimbCell(t *testing.T, f func(cell string, g *Graph, c *instance.Compiled)) {
	t.Helper()
	for fam, gen := range instance.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sz := range climbSizes {
				in := gen(seed, sz[0], sz[1])
				c := instance.Compile(in)
				for shape, g := range climbShapes(t, in, seed) {
					f(fmt.Sprintf("%s/%d %dx%d %s", fam, seed, sz[0], sz[1], shape), g, c)
				}
			}
		}
	}
}

// TestSolveMatchesReferenceClimb: scoring on counts, pruning, the settled
// stop and the single materialisation are invisible — Solve returns the
// reference's schedule bit for bit, with its probe and cache-hit counts.
func TestSolveMatchesReferenceClimb(t *testing.T) {
	forEachClimbCell(t, func(cell string, g *Graph, c *instance.Compiled) {
		want, wantErr := refSolve(g, Options{Compiled: c, Scratch: core.NewScratch()})
		got, gotErr := g.Solve(Options{Compiled: c, Scratch: core.NewScratch()})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error %v, reference %v", cell, gotErr, wantErr)
		}
		if got.Probes != want.Probes || got.CacheHits != want.CacheHits {
			t.Fatalf("%s: probes/hits %d/%d, reference %d/%d",
				cell, got.Probes, got.CacheHits, want.Probes, want.CacheHits)
		}
		if wantErr == nil && !schedulesBitEqual(got.Schedule, want.Schedule) {
			t.Fatalf("%s: schedule differs from the reference climb\n got %+v\nwant %+v",
				cell, got.Schedule, want.Schedule)
		}
	})
}

// TestReadyInsertIsTheSortedOrder: inserting tasks one by one, in any
// order, yields the list sorted by (tail desc, index asc) — what the event
// loop used to re-establish with a sort at every event.
func TestReadyInsertIsTheSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(24)
		tail := make([]float64, n)
		for i := range tail {
			tail[i] = float64(rng.Intn(5)) // few values: plenty of ties
		}
		var ready []int
		for _, j := range rng.Perm(n) {
			ready = readyInsert(ready, tail, j)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			x, y := want[a], want[b]
			if tail[x] != tail[y] {
				return tail[x] > tail[y]
			}
			return x < y
		})
		if !reflect.DeepEqual(ready, want) {
			t.Fatalf("tails %v: inserted order %v, sorted order %v", tail, ready, want)
		}
	}
}

// TestScoreIsTheListScheduleMakespan: for every allotment the portfolio's
// winner and the climb put to score, the un-pruned score is the makespan of
// the schedule listSchedule materialises for it, by bits, and every
// placement starts when the count-only simulation started that task.
func TestScoreIsTheListScheduleMakespan(t *testing.T) {
	forEachClimbCell(t, func(cell string, g *Graph, c *instance.Compiled) {
		e := g.evalContext(Options{Compiled: c})
		check := func(alloc []int, cutoff float64) (float64, bool) {
			s, err := e.listSchedule(alloc)
			got, ok := e.score(alloc, math.Inf(1))
			if (err == nil) != ok {
				t.Fatalf("%s alloc %v: listSchedule error %v, score ok %v", cell, alloc, err, ok)
			}
			if err == nil {
				if want := s.Makespan(g.in); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s alloc %v: score %v, list schedule makespan %v", cell, alloc, got, want)
				}
				for _, p := range s.Placements {
					if math.Float64bits(p.Start) != math.Float64bits(e.sc.start[p.Task]) {
						t.Fatalf("%s alloc %v: task %d placed at %v, scored at %v",
							cell, alloc, p.Task, p.Start, e.sc.start[p.Task])
					}
				}
			}
			return e.score(alloc, cutoff)
		}
		best, mk := e.portfolio(nil)
		if best == nil {
			t.Fatalf("%s: no candidate", cell)
		}
		check(best, math.Inf(1))
		e.climb(best, mk, check)
	})
}

// ulpBelow and ulpAbove are the neighbouring floats of x.
func ulpBelow(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
func ulpAbove(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// TestPruneNeverChangesTheWinner: score(alloc, cutoff) says yes exactly
// when the un-pruned makespan passes the caller's strict `< cutoff`, and
// then reports that makespan — for cutoffs at the true makespan, one ulp
// either side of it, and well away from it. So whatever a prune withholds,
// the comparison would have turned down.
func TestPruneNeverChangesTheWinner(t *testing.T) {
	holds := func(cell string, e *evalCtx, alloc []int) {
		t.Helper()
		mk, ok := e.score(alloc, math.Inf(1))
		if !ok {
			return
		}
		for _, cutoff := range []float64{
			mk, ulpBelow(mk), ulpAbove(mk),
			mk * (1 - 1e-9), mk * (1 + 1e-9), mk / 2, mk * 2,
			mk - 1e-12, mk + 1e-12,
		} {
			got, yes := e.score(alloc, cutoff)
			if yes != (mk < cutoff) {
				t.Fatalf("%s alloc %v: makespan %v against cutoff %v answered %v",
					cell, alloc, mk, cutoff, yes)
			}
			if yes && math.Float64bits(got) != math.Float64bits(mk) {
				t.Fatalf("%s alloc %v: cutoff %v moved the makespan %v → %v", cell, alloc, cutoff, mk, got)
			}
		}
	}
	forEachClimbCell(t, func(cell string, g *Graph, c *instance.Compiled) {
		e := g.evalContext(Options{Compiled: c})
		n := g.in.N()
		full := make([]int, n)
		ones := make([]int, n)
		mixed := make([]int, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range full {
			full[i] = c.MaxProcs(i)
			ones[i] = 1
			mixed[i] = 1 + rng.Intn(c.MaxProcs(i))
		}
		holds(cell, &e, full)
		holds(cell, &e, ones)
		holds(cell, &e, mixed)
		holds(cell, &e, append([]int(nil), e.levelProportional()...))
		if best, _ := e.portfolio(nil); best != nil {
			holds(cell, &e, append([]int(nil), best...))
		}
	})

	// The case the guard in reaches exists for. A chain's tail is summed
	// right to left, the simulation adds left to right, and for these times
	// the two disagree in the last bit with the tail on the high side:
	// (0.3+0.2)+0.1 = 0.6 but 0.3+(0.2+0.1) = 0.6000000000000001. Held
	// against a cutoff one ulp above the true makespan, the critical-path
	// bound equals the cutoff: a guard of 0 would prune a makespan the
	// strict comparison accepts.
	for _, times := range [][]float64{{0.3, 0.2, 0.1}, {0.1, 0.2, 0.3}} {
		tasks := make([]task.Task, len(times))
		for i, x := range times {
			tasks[i] = task.MustNew(fmt.Sprintf("t%d", i), []float64{x})
		}
		in := instance.MustNew("last-bit", 1, tasks)
		g, err := NewGraph(in, ChainEdges(len(times)))
		if err != nil {
			t.Fatal(err)
		}
		e := g.evalContext(Options{})
		alloc := []int{1, 1, 1}
		mk, _ := e.score(alloc, math.Inf(1))
		cp := g.criticalPathInto(times, make([]float64, len(times)))
		if math.Float64bits(cp) == math.Float64bits(mk) {
			t.Fatalf("times %v: tail sum %v and simulated sum %v agree — the case tests nothing", times, cp, mk)
		}
		if times[0] > times[2] {
			if cutoff := ulpAbove(mk); !(cp >= cutoff) {
				t.Fatalf("times %v: critical path %v below cutoff %v — an unguarded prune would not fire", times, cp, cutoff)
			}
		}
		holds(fmt.Sprint("last-bit ", times), &e, alloc)
	}
}

// TestClimbStopsWhenSettled: the climb never puts the same question twice
// — no (allotment, incumbent) pair reaches score a second time, which is
// what the same-visit dedup, the held rejections and the settled stop buy
// — and on a chain, where the full-machine winner leaves only moves that
// lengthen the critical path, no simulation runs to the end.
func TestClimbStopsWhenSettled(t *testing.T) {
	forEachClimbCell(t, func(cell string, g *Graph, c *instance.Compiled) {
		e := g.evalContext(Options{Compiled: c})
		best, mk := e.portfolio(nil)
		if best == nil {
			t.Fatalf("%s: no candidate", cell)
		}
		asked := map[string]bool{}
		full := 0
		e.climb(best, mk, func(alloc []int, cutoff float64) (float64, bool) {
			q := fmt.Sprint(alloc, math.Float64bits(cutoff))
			if asked[q] {
				t.Fatalf("%s: allotment %v scored twice against cutoff %v", cell, alloc, cutoff)
			}
			asked[q] = true
			got, ok := e.score(alloc, cutoff)
			if ok {
				full++
			}
			return got, ok
		})
		if strings.HasSuffix(cell, " chain") && full != 0 {
			t.Fatalf("%s: %d climb moves on a chain simulated to the end", cell, full)
		}
	})
}
