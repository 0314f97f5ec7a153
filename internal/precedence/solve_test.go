package precedence

import (
	"math"
	"reflect"
	"testing"

	"malsched/internal/core"
	"malsched/internal/instance"
)

// testGraphs builds the three DAG shapes over an instance.
func testGraphs(t *testing.T, in *instance.Instance, seed int64) []*Graph {
	t.Helper()
	outTree, err := OutTreeEdges(in.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var gs []*Graph
	for _, edges := range [][][]int{
		ChainEdges(in.N()),
		outTree,
		RandomEdges(seed, in.N(), 0.3),
	} {
		g, err := NewGraph(in, edges)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// evalsEqual compares two candidate evaluations bit for bit.
func evalsEqual(a, b *segEval) bool {
	if a.ok != b.ok {
		return false
	}
	if !a.ok {
		return true
	}
	return reflect.DeepEqual(a.alloc, b.alloc) &&
		reflect.DeepEqual(a.times, b.times) &&
		math.Float64bits(a.area) == math.Float64bits(b.area) &&
		math.Float64bits(a.cp) == math.Float64bits(b.cp)
}

// refEval is the reference the compiled evaluation answers to — the sole
// surviving task-struct evaluator: it derives (γ(λ), times, Σw/m, CP)
// straight from the task profiles, the way the pre-compiled implementation
// did, with no tables, no thresholds and no cache.
func refEval(g *Graph, lambda float64) *segEval {
	in := g.in
	n := in.N()
	ent := &segEval{alloc: make([]int, n), times: make([]float64, n), ok: true}
	var raw float64
	for i, t := range in.Tasks {
		gm, ok := t.Canonical(lambda)
		if !ok {
			ent.ok = false
			return ent
		}
		ent.alloc[i] = gm
		ent.times[i] = t.Time(gm)
		raw += t.Work(gm)
	}
	ent.area = raw / float64(in.M)
	ent.cp = g.criticalPathInto(ent.times, make([]float64, n))
	return ent
}

// TestCompiledEvalMatchesLegacy is the property the whole compiled DAG
// path rests on: at every candidate deadline of every graph, the
// segment-cached compiled evaluation equals the task-struct reference
// (refEval) bit for bit — allotment, times, area and critical path. A
// second compiled pass must resolve entirely from the segment cache and
// still agree.
func TestCompiledEvalMatchesLegacy(t *testing.T) {
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
	// DropCompiled must evict every entry keyed by these tables.
	sc.DropCompiled(c)
	if len(sc.seg) != 0 {
		t.Fatalf("%d entries survived DropCompiled", len(sc.seg))
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
			if n := len(auxScratch(cs).seg); n != 0 {
				t.Fatalf("%d segment entries of private tables left in the scratch", n)
			}
		}
	}
	c := instance.Compile(in)
	if _, err := testGraphs(t, in, 3)[0].Solve(Options{Compiled: c, Scratch: cs}); err != nil {
		t.Fatal(err)
	}
	if len(auxScratch(cs).seg) == 0 {
		t.Fatal("caller-supplied tables were evicted from the caller's scratch")
	}
}

// TestSolveCompiledMatchesLegacy: the segment cache must be invisible in
// the full heuristic and the plain crossover solve alike. On one scratch
// shared by an instance's graphs, a cold solve, a hot re-solve (which must
// actually hit the cache) and a self-compiled solve all return what a
// solve on a fresh private scratch returns, schedule and probe count.
func TestSolveCompiledMatchesLegacy(t *testing.T) {
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
