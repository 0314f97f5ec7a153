//go:build !race

// Allocation budgets of the dual step and the search around it. The race
// detector instruments allocations, so the file is excluded under -race.

package core

import (
	"errors"
	"fmt"
	"testing"

	"malsched/internal/alloctest"
	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/task"
)

// A probe pays for what it keeps: a rejected guess allocates nothing,
// whether it exits at the Property-2 test or builds every construction
// first; an accepted one, through the Prober seam, allocates the Schedule
// its caller then owns and that schedule's placements (dualStep itself
// allocates nothing either way: its winner stays in the Scratch).
func TestAllocProbe(t *testing.T) {
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
		budget uint64
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
		alloctest.Hold(t, "probe "+tc.name, tc.budget, run)
	}
}

// A whole search on a warmed Scratch with caller-supplied tables allocates
// a constant, whatever it accepted on the way: the one Schedule it returns
// and that schedule's placements. The probes hand their winners back
// inside the Scratch, the incumbent is kept there, and the copy-out happens
// once, after the last probe — the search no longer has to know which
// accepted probe it will keep before it consumed them.
func TestAllocApproximate(t *testing.T) {
	in := instance.Mixed(9, 24, 16)
	c := instance.Compile(in)
	sc := NewScratch()
	acc, all := acceptedGuesses(t, in, c)
	accepted, probes := len(acc), len(all)
	if accepted < 2 {
		t.Fatalf("%d accepted probes of %d: the budget would not show a per-probe copy", accepted, probes)
	}
	alloctest.Hold(t, fmt.Sprintf("Approximate, %d accepted probes of %d", accepted, probes), 2, func() {
		if _, err := Approximate(in, Options{Compiled: c, Scratch: sc}); err != nil {
			t.Fatal(err)
		}
	})
}

// A search that fails has allocated no schedule: consuming an accepted
// probe — dualStep's winner, merged into the Scratch-held incumbent — is
// free, so everything up to an interrupt or ErrNoSchedule is, and what an
// interrupted search does allocate is its error.
func TestAllocFailedSearch(t *testing.T) {
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
	alloctest.Hold(t, "consuming four accepted probes", 0, consume)
	if s.best != &sc.best {
		t.Fatal("the incumbent of a default sequential search is not the Scratch's")
	}

	closed := make(chan struct{})
	close(closed)
	// fmt.Errorf's boxed instance name, message and wrapping error.
	alloctest.Hold(t, "interrupted Approximate", 3, func() {
		if res, err := Approximate(in, Options{Compiled: c, Scratch: sc, Interrupt: closed}); !errors.Is(err, ErrInterrupted) || res.Schedule != nil {
			t.Fatalf("interrupted search returned %+v, %v", res, err)
		}
	})
}

// The malleable list keeps its grown sequential-tail buffer on every path:
// a build that appended to it and then met parallel tasks wider than the
// machine used to return before storing the slice back, so the next build
// grew it again.
func TestAllocMalleableListOverflow(t *testing.T) {
	const n, m = 24, 16
	c := instance.Compile(instance.Mixed(9, n, m))
	order := c.SeqOrder()
	// Sequential allotments first in the list order, then parallel ones
	// that cannot fit side by side.
	alloc := make([]int, n)
	for k, i := range order {
		alloc[i] = 1
		if k >= n/2 {
			alloc[i] = m/2 + 1
		}
	}
	sc := NewScratch()
	if d := buildMalleableList(c, alloc, sc); d.built() {
		t.Fatal("parallel tasks wider than the machine were placed")
	}
	if cap(sc.seq) < n/2 {
		t.Fatalf("sequential-tail buffer of capacity %d after a build that appended %d tasks", cap(sc.seq), n/2)
	}
	alloctest.Hold(t, "overflowing build", 0, func() { buildMalleableList(c, alloc, sc) })
}
