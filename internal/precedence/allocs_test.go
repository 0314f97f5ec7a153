//go:build !race

// Allocation budget of the DAG path. The race detector instruments
// allocations, so the file is excluded under -race.

package precedence

import (
	"testing"

	"malsched/internal/alloctest"
	"malsched/internal/core"
	"malsched/internal/instance"
)

// What one request costs in this package: a graph built on a warmed
// Scratch, and a solve there with caller-supplied tables, which allocates
// only the schedule it returns — the graph, candidates, climb moves and
// segment-cache entries live on the Scratch.
func TestAllocSolve(t *testing.T) {
	in := instance.Mixed(9, 16, 8) // the benchmark's serve-dag shape
	c := instance.Compile(in)
	outTree, err := OutTreeEdges(in.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for shape, edges := range map[string][][]int{
		"chain":      ChainEdges(in.N()),
		"out-tree":   outTree,
		"random-0.3": RandomEdges(9, in.N(), 0.3),
	} {
		for _, solve := range []struct {
			name string
			run  func(*Graph, Options) (Result, error)
		}{
			{"Solve", (*Graph).Solve},
			{"SolveCrossover", (*Graph).SolveCrossover},
		} {
			cs := core.NewScratch()
			ps := ScratchOf(cs)
			run := func() {
				g, err := ps.Graph(in, edges)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := solve.run(g, Options{Compiled: c, Scratch: cs}); err != nil {
					t.Fatal(err)
				}
				ps.Release()
			}
			// schedule.Clone, once, for the winner: the Schedule, its
			// placements, one backing array for every processor set.
			alloctest.Hold(t, "Scratch.Graph + "+solve.name+" "+shape, 3, run)
		}
	}
}

// The pieces the request path calls on their own: every edge admission is
// one topological sort on a pooled block (no allocation; one block per call
// before), the certified bound is read off the graph, and a cold pass over a
// graph's deadlines on a Scratch whose segment cache has entries to recycle
// allocates nothing.
func TestAllocGraph(t *testing.T) {
	in := instance.Mixed(9, 16, 8)
	c := instance.Compile(in)
	edges := RandomEdges(9, in.N(), 0.3)
	g, err := NewGraph(in, edges)
	if err != nil {
		t.Fatal(err)
	}
	e := &evalCtx{g: g, c: c, sc: &Scratch{}}
	alloctest.Hold(t, "ValidateEdges", 0, func() {
		if err := ValidateEdges(in.N(), edges); err != nil {
			t.Fatal(err)
		}
	})
	// The Graph, the successor lists' outer slice and their shared backing,
	// one block for preds/indegree/topological order, one for the candidate
	// deadlines, the λ grid and the lower bound's walk.
	alloctest.Hold(t, "NewGraph", 5, func() {
		if _, err := NewGraph(in, edges); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Hold(t, "LowerBound", 0, func() { g.LowerBound() })
	// A recycled entry that last held an infeasible verdict has no tables
	// yet: the pool acquires them over the first few passes.
	alloctest.Hold(t, "cold eval pass, recycled entries", 0, func() {
		for _, lambda := range g.cands {
			e.eval(lambda)
		}
		e.sc.DropCompiled(c)
	})
}

// A graph built on a Scratch allocates nothing once the scratch has grown to
// the largest graph: the serve-dag shapes in turn, each on a fresh
// instance, and a smaller one after them.
func TestAllocGraphOnScratch(t *testing.T) {
	const n, m = 16, 8
	outTree, err := OutTreeEdges(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		in    *instance.Instance
		edges [][]int
	}
	var pairs []pair
	for k := range 12 {
		edges := [][][]int{ChainEdges(n), outTree, RandomEdges(int64(k), n, 0.3)}[k%3]
		pairs = append(pairs, pair{instance.Mixed(int64(k), n, m), edges})
	}
	pairs = append(pairs, pair{instance.Mixed(99, n/2, m), ChainEdges(n / 2)})
	sc, next := &Scratch{}, 0
	alloctest.Hold(t, "Scratch.Graph", 0, func() {
		p := pairs[next%len(pairs)]
		next++
		if _, err := sc.Graph(p.in, p.edges); err != nil {
			t.Fatal(err)
		}
		sc.Release()
	})
}
