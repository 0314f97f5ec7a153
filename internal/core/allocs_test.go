//go:build !race

// Allocation budgets of the dual step and the search around it. The race
// detector instruments allocations, so the file is excluded under -race.

package core

import (
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/task"
)

// A probe pays for what it keeps: a rejected guess allocates nothing,
// whether it exits at the Property-2 test or builds every construction
// first; an accepted one allocates the Schedule it returns and that
// schedule's placements.
func TestProbeAllocBudgets(t *testing.T) {
	const n, m = 24, 16 // the benchmark's serve-cold shape
	p := DefaultParams()
	mixed := instance.Mixed(9, n, m)
	lb := lowerbound.Trivial(mixed)

	// Eleven sequential tasks of time 0.9 on ten processors at λ = 1: the
	// area test passes and W > θmλ, every list exceeds ρλ (two tasks share a
	// processor) and no task can enter the second shelf, so the probe runs
	// all its constructions and ends in the exhaustive knapsack's reject.
	var seq []task.Task
	for i := 0; i < 11; i++ {
		seq = append(seq, task.Sequential("s", 0.9, 10))
	}
	crowded := instance.MustNew("crowded", 10, seq)

	for _, tc := range []struct {
		name   string
		in     *instance.Instance
		lambda float64
		reject RejectReason
		budget float64
	}{
		{"rejected at the area test", mixed, lb * 1.02, RejectArea, 0},
		{"rejected after every construction", crowded, 1, RejectKnapsack, 0},
		{"accepted", mixed, lb * 1.5, RejectNone, 2},
	} {
		c := instance.Compile(tc.in)
		sc := NewScratch()
		run := func() {
			if r := dualStep(c, tc.lambda, p, sc, nil); r.Reject != tc.reject {
				t.Fatalf("%s: probe ended %q, want %q", tc.name, r.Reject, tc.reject)
			}
		}
		run() // grow the Scratch, fill the segment
		if got := testing.AllocsPerRun(200, run); got > tc.budget {
			t.Errorf("probe %s: %.1f allocs per run, budget %.0f", tc.name, got, tc.budget)
		} else {
			t.Logf("probe %s: %.1f allocs per run (budget %.0f)", tc.name, got, tc.budget)
		}
	}
}

// A whole search on a warmed Scratch with caller-supplied tables: what is
// left is the accepted probes' copies (the search cannot know which it will
// keep before it consumed them) and a constant for the search itself.
func TestApproximateAllocBudget(t *testing.T) {
	in := instance.Mixed(9, 24, 16)
	c := instance.Compile(in)
	sc := NewScratch()
	var tr SolveTrace
	if _, err := Approximate(in, Options{Compiled: c, Scratch: sc, Trace: &tr}); err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, pr := range tr.Probes {
		if pr.Accepted {
			accepted++
		}
	}
	budget := float64(2*accepted + 4)
	got := testing.AllocsPerRun(100, func() {
		if _, err := Approximate(in, Options{Compiled: c, Scratch: sc}); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Approximate: %.1f allocs per search, budget %.0f (%d accepted probes of %d)", got, budget, accepted, len(tr.Probes))
	} else {
		t.Logf("Approximate: %.1f allocs per search (budget %.0f, %d accepted probes of %d)", got, budget, accepted, len(tr.Probes))
	}
}
