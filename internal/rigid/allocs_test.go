//go:build !race

package rigid

import (
	"testing"

	"malsched/internal/alloctest"
)

// LPTInto works on caller-owned memory only.
func TestAllocLPTInto(t *testing.T) {
	durations := []float64{5, 4, 4, 3, 2, 2, 1}
	load := make([]float64, 3)
	proc, start := make([]int, len(durations)), make([]float64, len(durations))
	alloctest.Hold(t, "LPTInto", 0, func() {
		clear(load)
		LPTInto(load, durations, nil, proc, start)
	})
}
