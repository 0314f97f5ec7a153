//go:build !race

// Allocation budgets of the checks every DAG response crosses twice. The
// race detector instruments allocations, so the file is excluded under
// -race.

package verify

import (
	"testing"

	"malsched/internal/alloctest"
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
	alloctest.Hold(t, "verify.Precedence", 0, func() {
		if err := Precedence(in, edges, plan); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Hold(t, "verify.Plan", 0, func() {
		if err := Plan(in, cert, false); err != nil {
			t.Fatal(err)
		}
	})
}
