//go:build !race

// Allocation budgets of the memo's copies. The race detector instruments
// allocations, so the file is excluded under -race.

package engine

import (
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/solver"
)

// Every memo put and every memo hit copies the plan. On a list-scheduled
// DAG plan of the benchmark's serve-dag shape the copy is three
// allocations whatever the number of processor sets — the Schedule, its
// placements, one backing array for every set — and a whole hit through
// ScheduleWith adds nothing to it. Both read 3; 17 and 18 while every set
// was an allocation of its own.
func TestAllocBudgetDAGMemo(t *testing.T) {
	const cloneBudget, hitBudget = 3, 3
	in := instance.Mixed(9, 16, 8)
	o := Options{Solver: solver.DAGSolverName, Edges: precedence.RandomEdges(9, in.N(), 0.3)}
	e := New(Config{Workers: 1})
	out := e.ScheduleWith(in, o, 0)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	sets := 0
	for _, p := range out.Solution.Plan.Placements {
		if p.ProcSet != nil {
			sets++
		}
	}
	if sets < 2 {
		t.Fatalf("%d processor sets: the budget would not show a per-set copy", sets)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"clone (memo put)", cloneBudget, func() { _ = clone(out.Solution) }},
		{"ScheduleWith memo hit", hitBudget, func() {
			if hit := e.ScheduleWith(in, o, 0); hit.Err != nil || !hit.FromMemo {
				t.Fatalf("not a memo hit: %v", hit.Err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.budget {
			t.Errorf("%s: %.1f allocs per run, budget %.0f (%d processor sets)", tc.name, got, tc.budget, sets)
		} else {
			t.Logf("%s: %.1f allocs per run (budget %.0f, %d processor sets)", tc.name, got, tc.budget, sets)
		}
	}
}
