//go:build !race

// Allocation budgets of compilation. The race detector instruments
// allocations, so the file is excluded under -race.

package instance

import "testing"

// Compile allocates the Compiled, one int slab (off | seqOrder) and one
// float slab (times | works) — and, above 64 tasks, the sequential order's
// sort keys; the breakpoint axis is not its to build.
func TestCompileAllocBudget(t *testing.T) {
	in := Mixed(9, 24, 16) // the benchmark's serve-cold shape
	const budget = 3
	if got := testing.AllocsPerRun(200, func() { Compile(in) }); got > budget {
		t.Errorf("Compile: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("Compile: %.1f allocs per run (budget %d)", got, budget)
	}
}

// Residual allocates the slab its scaled rows are carved from, the task
// slice and the Instance: nobody else references a residual, so nothing is
// copied on the way in. (2n + 3 = 61 on this shape before PR 17: every row
// made once and copied by task.New, the task slice copied by New.)
func TestResidualAllocBudget(t *testing.T) {
	c := Compile(Mixed(9, 30, 8)) // the benchmark's serve-replan base shape
	ids := make([]int, 0, c.N()-1)
	rem := make([]float64, 0, c.N()-1)
	for id := 1; id < c.N(); id++ { // drop the head task, halve the next one
		ids = append(ids, id)
		rem = append(rem, 1)
	}
	rem[0] = 0.5
	const budget = 4
	got := testing.AllocsPerRun(200, func() {
		if _, err := Residual(c, "residual", c.M(), ids, rem); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Residual: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("Residual: %.1f allocs per run (budget %d)", got, budget)
	}
}
