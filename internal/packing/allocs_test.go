//go:build !race

package packing

import (
	"testing"

	"malsched/internal/alloctest"
)

// The in-place First Fit on a Result that has packed the same number of
// items before allocates nothing (core packs twice per probe).
func TestAllocFirstFitInPlace(t *testing.T) {
	sizes := []float64{0.4, 0.3, 0.5, 0.2, 0.45, 0.1, 0.35, 0.25}
	var r Result
	run := func() {
		if err := r.FirstFit(sizes, 1); err != nil {
			t.Fatal(err)
		}
	}
	alloctest.Hold(t, "in-place FirstFit", 0, run)
}
