//go:build !race

// Allocation budgets of the checks every DAG response crosses twice. The
// race detector instruments allocations, so the file is excluded under
// -race.

package verify

import (
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
)

// Precedence admits the edges and checks their order on pooled buffers:
// nothing per call (four allocations before — the edge gate's Kahn block
// and the start, end and placed arrays). Plan, on the same list-scheduled
// plan, sweeps on pooled buffers too.
func TestAllocBudgetPrecedence(t *testing.T) {
	in := instance.Mixed(9, 16, 8) // the benchmark's serve-dag shape
	edges := precedence.RandomEdges(9, in.N(), 0.3)
	g, err := precedence.NewGraph(in, edges)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Solve(precedence.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := r.Schedule
	cert := Certified{Plan: plan, Makespan: plan.Makespan(in), LowerBound: g.LowerBound()}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"verify.Precedence", func() error { return Precedence(in, edges, plan) }},
		{"verify.Plan", func() error { return Plan(in, cert, false) }},
	} {
		if err := tc.run(); err != nil { // and warm the pools
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = tc.run() }); got > 0 {
			t.Errorf("%s: %.1f allocs per run, budget 0", tc.name, got)
		} else {
			t.Logf("%s: %.1f allocs per run (budget 0)", tc.name, got)
		}
	}
}
