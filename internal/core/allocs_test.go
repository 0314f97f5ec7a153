//go:build !race

// Allocation budgets of the dual step and the search around it. The race
// detector instruments allocations, so the file is excluded under -race.

package core

import (
	"errors"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/task"
)

// A probe pays for what it keeps: a rejected guess allocates nothing,
// whether it exits at the Property-2 test or builds every construction
// first; an accepted one, through the Prober seam, allocates the Schedule
// its caller then owns and that schedule's placements (dualStep itself
// allocates nothing either way: its winner stays in the Scratch).
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
			if r := (DualProber{}).Probe(tc.in, c, tc.lambda, p, sc, nil); r.Reject != tc.reject {
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

// A whole search on a warmed Scratch with caller-supplied tables allocates
// a constant, whatever it accepted on the way: the search state, and the
// one Schedule it returns with that schedule's placements. The probes hand
// their winners back inside the Scratch, the incumbent is kept there, and
// the copy-out happens once, after the last probe — the search no longer
// has to know which accepted probe it will keep before it consumed them.
// Reads 3.
func TestApproximateAllocBudget(t *testing.T) {
	const budget = 4
	in := instance.Mixed(9, 24, 16)
	c := instance.Compile(in)
	sc := NewScratch()
	acc, all := acceptedGuesses(t, in, c)
	accepted, probes := len(acc), len(all)
	if accepted < 2 {
		t.Fatalf("%d accepted probes of %d: the budget would not show a per-probe copy", accepted, probes)
	}
	got := testing.AllocsPerRun(100, func() { // its warm-up run grows the Scratch
		if _, err := Approximate(in, Options{Compiled: c, Scratch: sc}); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Approximate: %.1f allocs per search, budget %d (%d accepted probes of %d)", got, budget, accepted, probes)
	} else {
		t.Logf("Approximate: %.1f allocs per search (budget %d, %d accepted probes of %d)", got, budget, accepted, probes)
	}
}

// A search that fails has allocated no schedule: consuming an accepted
// probe — dualStep's winner, merged into the Scratch-held incumbent — is
// free, so everything up to an interrupt or ErrNoSchedule is, and what an
// interrupted search does allocate is its state and its error.
func TestFailedSearchAllocatesNoSchedule(t *testing.T) {
	in := instance.Mixed(9, 24, 16)
	c := instance.Compile(in)
	sc := NewScratch()
	lb := lowerbound.Trivial(in)
	s := &search{in: in, c: c, p: DefaultParams(), borrow: sc}
	consume := func() {
		for _, f := range []float64{4, 2, 1.5, 1.25} { // decreasing, as accepted guesses come
			r := dualStep(c, lb*f, s.p, sc, nil)
			if r.Schedule == nil {
				t.Fatalf("λ=%v·LB rejected: %v", f, r.Reject)
			}
			s.merge(lb*f, r, false)
		}
	}
	consume() // grow the Scratch, fill the segments
	if got := testing.AllocsPerRun(100, consume); got != 0 {
		t.Errorf("consuming four accepted probes: %.1f allocs, want 0", got)
	}
	if s.best != &sc.best {
		t.Fatal("the incumbent of a default sequential search is not the Scratch's")
	}

	closed := make(chan struct{})
	close(closed)
	got := testing.AllocsPerRun(100, func() {
		if res, err := Approximate(in, Options{Compiled: c, Scratch: sc, Interrupt: closed}); !errors.Is(err, ErrInterrupted) || res.Schedule != nil {
			t.Fatalf("interrupted search returned %+v, %v", res, err)
		}
	})
	// The search state, and fmt.Errorf's wrapped error with its message.
	if got > 5 {
		t.Errorf("interrupted Approximate: %.1f allocs, budget 5", got)
	} else {
		t.Logf("interrupted Approximate: %.1f allocs (budget 5)", got)
	}
}
