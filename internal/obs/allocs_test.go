//go:build !race

// Allocation budget of the request ID. The race detector instruments
// allocations, so the file is excluded under -race.

package obs

import (
	"testing"

	"malsched/internal/alloctest"
)

var idSink string

// Request IDs are minted 64 at a time, one string and one block for all of
// them, so a request's ID reads 0 (2/64).
func TestAllocBudgetRequestID(t *testing.T) {
	alloctest.Hold(t, "NewRequestID", 0, func() { idSink = NewRequestID() })
}
