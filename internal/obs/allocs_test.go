//go:build !race

// Allocation budget of the request ID. The race detector instruments
// allocations, so the file is excluded under -race.

package obs

import (
	"testing"

	"malsched/internal/alloctest"
)

var idSink string

// A request ID is one string, however long its sequence number. The run
// starts far along the sequence: a short number's bytes are small enough
// for the runtime's tiny allocator, whose count can lag, so a reading taken
// on the first IDs of a process can hide an allocation.
func TestAllocBudgetRequestID(t *testing.T) {
	reqSeq.Add(1 << 40) // forward only: IDs stay unique in this process
	alloctest.Hold(t, "NewRequestID", 1, func() { idSink = NewRequestID() })
}
