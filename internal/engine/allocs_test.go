//go:build !race

// Allocation budgets of the memo's copies. The race detector instruments
// allocations, so the file is excluded under -race.

package engine

import (
	"fmt"
	"testing"

	"malsched/internal/alloctest"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/solver"
)

// Every memo put and every memo hit copies the plan. On a list-scheduled
// DAG plan of the benchmark's serve-dag shape a put is three allocations
// whatever the number of processor sets — the entry, which holds the
// Schedule, the placements, and one backing array for every set and the
// entry's copy of the edges — and a hit's copy three as well (the
// Schedule, its placements, the sets' array), to which a whole hit through
// ScheduleWith, identity check included, adds nothing.
func TestAllocBudgetDAGMemo(t *testing.T) {
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
	alloctest.Hold(t, fmt.Sprintf("newEntry (memo put), %d processor sets", sets), 3, func() {
		off, times := e.CompiledFor(in).Rows()
		_ = newEntry(in, o, out.Solution, off, times)
	})
	alloctest.Hold(t, fmt.Sprintf("ScheduleWith memo hit, %d processor sets", sets), 3, func() {
		if hit := e.ScheduleWith(in, o, 0); hit.Err != nil || !hit.FromMemo {
			t.Fatalf("not a memo hit: %v", hit.Err)
		}
	})
}

// A put into a full cache reuses the node it evicts, so a miss at capacity
// puts into the memo, compiled and warm caches without allocating: every
// call here evicts, its key new to a cache filled to the default capacity.
func TestAllocLRUPutAtCapacity(t *testing.T) {
	l := newLRU[*MemoEntry](DefaultMemoCapacity)
	next := 0
	put := func() {
		l.put(memoKey{hash: uint64(next) * 0x9e3779b97f4a7c15, m: 16, n: next}, nil)
		next++
	}
	for range DefaultMemoCapacity {
		put()
	}
	alloctest.Hold(t, "lru put at capacity", 0, put)
	if l.len() != DefaultMemoCapacity {
		t.Fatalf("%d entries, want %d", l.len(), DefaultMemoCapacity)
	}
}
