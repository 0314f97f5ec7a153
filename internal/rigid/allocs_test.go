//go:build !race

package rigid

import "testing"

// LPTInto works on caller-owned memory only.
func TestLPTIntoAllocs(t *testing.T) {
	durations := []float64{5, 4, 4, 3, 2, 2, 1}
	load := make([]float64, 3)
	proc, start := make([]int, len(durations)), make([]float64, len(durations))
	if got := testing.AllocsPerRun(200, func() {
		clear(load)
		LPTInto(load, durations, nil, proc, start)
	}); got != 0 {
		t.Fatalf("LPTInto: %.1f allocs per run, want 0", got)
	}
}
