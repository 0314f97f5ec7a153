//go:build !race

// Allocation budgets of the buffer pool. The race detector instruments
// allocations (and sync.Pool drops items at random under it), so the file
// is excluded under -race.

package wire

import "testing"

// A GetBuffer/PutBuffer pair recycles the buffer and the box it travels in:
// nothing is allocated once both pools are warm. Before the boxes were
// recycled every PutBuffer heap-allocated a slice header.
func TestAllocBudgetBufferPool(t *testing.T) {
	pair := func() {
		b := GetBuffer()
		b = append(b, "payload"...)
		PutBuffer(b)
	}
	pair() // warm both pools
	if got := testing.AllocsPerRun(1000, pair); got > 0 {
		t.Errorf("GetBuffer/PutBuffer pair: %.1f allocs per run, budget 0", got)
	}
}
