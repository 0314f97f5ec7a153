//go:build !race

// Allocation budgets of compilation. The race detector instruments
// allocations, so the file is excluded under -race.

package instance

import (
	"testing"

	"malsched/internal/alloctest"
)

// Compile allocates the Compiled, one int slab (off | seqOrder) and one
// float slab (times | works) — and, above 64 tasks, the sequential order's
// sort keys; the breakpoint axis is not its to build.
func TestAllocCompile(t *testing.T) {
	in := Mixed(9, 24, 16) // the benchmark's serve-cold shape
	alloctest.Hold(t, "Compile", 3, func() { Compile(in) })
}

// Residual allocates the slab its scaled rows are carved from, the task
// slice and the Instance: nobody else references a residual, so nothing is
// copied on the way in.
func TestAllocResidual(t *testing.T) {
	c := Compile(Mixed(9, 30, 8)) // the benchmark's serve-replan base shape
	ids := make([]int, 0, c.N()-1)
	rem := make([]float64, 0, c.N()-1)
	for id := 1; id < c.N(); id++ { // drop the head task, halve the next one
		ids = append(ids, id)
		rem = append(rem, 1)
	}
	rem[0] = 0.5
	alloctest.Hold(t, "Residual", 3, func() {
		if _, err := Residual(c, "residual", c.M(), ids, rem); err != nil {
			t.Fatal(err)
		}
	})
}
