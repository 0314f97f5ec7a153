//go:build !race

// Allocation budget of the request ID. The race detector instruments
// allocations, so the file is excluded under -race.

package obs

import "testing"

var idSink string

// A request ID is one string, however long its sequence number. The run
// starts far along the sequence: a short number's bytes are small enough
// for the runtime's tiny allocator, whose count can lag, so a budget
// measured on the first IDs of a process can hide an allocation. Reads 1;
// 2 when the number was formatted into a string of its own and then
// concatenated.
func TestAllocBudgetRequestID(t *testing.T) {
	reqSeq.Add(1 << 40) // forward only: IDs stay unique in this process
	if got := testing.AllocsPerRun(1000, func() { idSink = NewRequestID() }); got > 1 {
		t.Errorf("NewRequestID: %.1f allocs per run, budget 1", got)
	}
}
