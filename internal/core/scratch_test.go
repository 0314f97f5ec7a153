package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/schedule"
)

// Reusing one Scratch across many searches must not change any output:
// the pooled hot path is an allocation optimisation, not an algorithm
// change. Compare bit-for-bit against the allocate-per-call path.
func TestApproximateScratchBitIdentical(t *testing.T) {
	sc := NewScratch()
	for name, gen := range instance.Families() {
		for seed := int64(0); seed < 4; seed++ {
			in := gen(seed, 25, 16)
			fresh, err := Approximate(in, Options{})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, seed, err)
			}
			pooled, err := Approximate(in, Options{Scratch: sc})
			if err != nil {
				t.Fatalf("%s/%d pooled: %v", name, seed, err)
			}
			if fresh.Makespan != pooled.Makespan ||
				fresh.LowerBound != pooled.LowerBound ||
				fresh.AcceptedLambda != pooled.AcceptedLambda ||
				fresh.Probes != pooled.Probes ||
				fresh.Branch != pooled.Branch {
				t.Fatalf("%s/%d: pooled result differs: %+v vs %+v", name, seed, pooled, fresh)
			}
			if !reflect.DeepEqual(fresh.Schedule.Placements, pooled.Schedule.Placements) {
				t.Fatalf("%s/%d: pooled placements differ", name, seed)
			}
		}
	}
}

// A schedule returned by a probe must not alias the Scratch: the
// constructions build in Scratch-owned placement buffers, dualStep hands
// its winner back inside them, and the one copy in DualProber.Probe is all
// that separates a held result from the next probe. The
// hammer uses same-shape instances, so the buffers are reused at identical
// offsets and an aliased result could not survive it; the second half
// repeats it through Approximate, whose one copy-out is all that separates
// its result from later searches on the same Scratch.
func TestDualStepResultsDoNotAliasScratch(t *testing.T) {
	const n, m = 30, 16
	p := DefaultParams()
	hammer := func(sc *Scratch) {
		for seed := int64(100); seed < 104; seed++ {
			in := instance.Mixed(seed, n, m)
			c := instance.Compile(in)
			lb := lowerbound.Trivial(in)
			for _, f := range []float64{0.9, 1, 1.1, 1.3, 2, 4} {
				dualStep(c, lb*f, p, sc, nil)
			}
		}
	}
	clone := func(s *schedule.Schedule) []schedule.Placement {
		return append([]schedule.Placement(nil), s.Placements...)
	}

	sc := NewScratch()
	in := instance.Mixed(1, n, m)
	r := DualProber{}.Probe(in, instance.Compile(in), in.MinTotalWork(), p, sc, nil) // any accepted guess
	if r.Schedule == nil {
		t.Fatalf("probe at λ=total work rejected: %v", r.Reject)
	}
	snapshot := clone(r.Schedule)
	hammer(sc)
	if !reflect.DeepEqual(snapshot, r.Schedule.Placements) {
		t.Fatal("earlier schedule mutated by later probes on the same Scratch")
	}

	res, err := Approximate(in, Options{Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	snapshot = clone(res.Schedule)
	hammer(sc)
	for seed := int64(200); seed < 204; seed++ {
		if _, err := Approximate(instance.Mixed(seed, n, m), Options{Scratch: sc}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(snapshot, res.Schedule.Placements) {
		t.Fatal("returned schedule mutated by later searches")
	}
	if err := schedule.Validate(in, res.Schedule, true); err != nil {
		t.Fatal(err)
	}
}

// The segment caches recycle evicted entries and inner maps. One Scratch
// solving many distinct instances — past two wholesale clears, with
// DropCompiled interleaved — must answer each exactly as a fresh Scratch
// does: a recycled segEntry whose range, sum or sorted/listed flags survived
// would serve another instance's tables here.
func TestRecycledSegmentEntriesStartClean(t *testing.T) {
	// A search lands in about four distinct segments, so the 512-entry cap
	// is hit every ~150 solves.
	const solves = 400
	sc := NewScratch()
	clears, prevTotal := 0, 0
	for i := int64(0); i < solves; i++ {
		n, m := 20+int(i%3)*5, 8+int(i%2)*8 // shapes vary, so recycled arrays change length too
		in := instance.Mixed(1000+i, n, m)
		c := instance.Compile(in)
		got, err := Approximate(in, Options{Scratch: sc, Compiled: c})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Approximate(in, Options{Compiled: c})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan || got.LowerBound != want.LowerBound || got.AcceptedLambda != want.AcceptedLambda ||
			got.Probes != want.Probes || got.Branch != want.Branch || !sameSchedule(got.Schedule, want.Schedule) {
			t.Fatalf("instance %d: recycled scratch answers %+v, fresh scratch %+v", i, got, want)
		}
		if sc.seg.Stats().Entries < prevTotal {
			clears++
		}
		prevTotal = sc.seg.Stats().Entries
		if i%8 == 7 {
			sc.DropCompiled(c)
			prevTotal = sc.seg.Stats().Entries
		}
	}
	if clears < 2 {
		t.Fatalf("only %d wholesale clears in %d solves; the test no longer reaches the recycling path", clears, solves)
	}
	if sc.seg.Stats().FreeEntries == 0 {
		t.Fatal("nothing was recycled")
	}
}

// Each exported one-shot compiles on entry and borrows a pooled Scratch;
// it must equal the scratch-threaded compiled call it wraps, run here on
// caller-compiled tables and one long-lived Scratch.
func TestScratchVariantsMatchExported(t *testing.T) {
	sc := NewScratch()
	p := DefaultParams()
	for seed := int64(0); seed < 5; seed++ {
		in := instance.Mixed(seed, 30, 16)
		c := instance.Compile(in)
		for _, lambda := range []float64{0.5, 1, 2, 5, 20} {
			a1 := CanonicalAllotment(in, lambda)
			e := filled(&sc.seg, c, lambda)
			a2 := allotmentOf(e, lambda)
			if a1.OK != a2.OK || a1.Slowest != a2.Slowest || (a1.OK && !reflect.DeepEqual(a1.Gamma, a2.Gamma)) {
				t.Fatalf("CanonicalAllotment differs at λ=%v", lambda)
			}
			want := dualStep(c, lambda, p, sc, nil)
			want.Schedule = owned(want.Schedule) // the later probes on sc reuse its buffers
			if got := dualStepOnce(in, lambda, p); !sameStep(got, want) {
				t.Fatalf("dual step differs at λ=%v: %+v vs %+v", lambda, got, want)
			}
			if got := (DualProber{}).Probe(in, nil, lambda, p, sc, nil); !sameStep(got, want) {
				t.Fatalf("DualProber.Probe without tables differs at λ=%v: %+v vs %+v", lambda, got, want)
			}
			if !a1.OK {
				continue
			}
			order := e.Val.sortedOrder(c, a2, &sc.keys)
			if !reflect.DeepEqual(byDecreasingTime(a1, in), order) {
				t.Fatalf("by-decreasing-time order differs at λ=%v", lambda)
			}
			if w1, w2 := a1.PrefixArea(in), prefixAreaFrom(c, a2, order); w1 != w2 {
				t.Fatalf("PrefixArea %v != %v", w1, w2)
			}
			s1 := MalleableList(in, lambda)
			s2 := malleableList(c, lambda, sc).schedule()
			if !sameSchedule(s1, s2) {
				t.Fatalf("MalleableList differs at λ=%v", lambda)
			}
			for _, realloc := range []bool{false, true} {
				c1 := CanonicalList(in, lambda, realloc)
				d2, _ := canonicalListFromAllotment(c, a2, order, realloc, sc)
				if !sameSchedule(c1, d2.schedule()) {
					t.Fatalf("CanonicalList(realloc=%v) differs at λ=%v", realloc, lambda)
				}
			}
			t1 := TwoShelf(in, lambda, p)
			t2 := twoShelfFromAllotment(c, a2, p, sc)
			if t1.Method != t2.method || t1.Exact != t2.exact || !sameSchedule(t1.Schedule, t2.schedule()) {
				t.Fatalf("TwoShelf differs at λ=%v: %q/%v vs %q/%v", lambda, t2.method, t2.exact, t1.Method, t1.Exact)
			}
			p1, err1 := NewPartition(in, a1, p.mu())
			p2, err2 := newPartition(c, a2, p.mu(), sc)
			if err1 != nil || err2 != nil ||
				fmt.Sprint(p1.T1, p1.T2, p1.TS, p1.D, p1.Q1, p1.Q2, p1.LS) != fmt.Sprint(p2.T1, p2.T2, p2.TS, p2.D, p2.Q1, p2.Q2, p2.LS) {
				t.Fatalf("NewPartition differs at λ=%v (%v, %v)", lambda, err1, err2)
			}
		}
	}
}

// Tables a call compiled for itself can never be looked up again, so they
// must not outlive the call in a borrowed Scratch: the exported one-shots
// hand their pooled Scratch back without them, and Approximate without
// Options.Compiled leaves the caller's Scratch as it found it. (Left in,
// each pooled Scratch would pin up to instance.SegmentCap dead tables until the
// wholesale clear.)
func TestPrivateTablesLeaveScratch(t *testing.T) {
	empty := func(ctx string, sc *Scratch) {
		t.Helper()
		if seg := sc.seg.Stats(); seg.Entries != 0 || seg.Lists != 0 {
			t.Fatalf("%s: scratch retains segment entries of private tables (%d in %d tables)", ctx, seg.Entries, seg.Lists)
		}
	}
	p := DefaultParams()
	for i := int64(0); i < 300; i++ {
		in := instance.Mixed(i, 12, 8)
		lambda := in.MinTotalWork() / float64(in.M) * 2
		dualStepOnce(in, lambda, p)
		CanonicalList(in, lambda, true)
		// Single goroutine, so the pool hands the same Scratch back (a
		// GC or the race detector may swap in a new one, trivially clean).
		sc := getScratch()
		empty("one-shots", sc)
		putScratch(sc)
	}

	in := instance.Mixed(7, 25, 16)
	sc := NewScratch()
	if _, err := Approximate(in, Options{Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	empty("Approximate", sc)
	(DualProber{}).Probe(in, nil, in.MinTotalWork(), p, sc, nil)
	empty("DualProber.Probe(nil tables)", sc)
	// Caller-supplied tables are the caller's to drop: they stay hot.
	c := instance.Compile(in)
	if _, err := Approximate(in, Options{Scratch: sc, Compiled: c}); err != nil {
		t.Fatal(err)
	}
	if len(sc.seg.Ranges(c, 0)) == 0 {
		t.Fatal("caller-supplied tables were evicted from the caller's scratch")
	}
}

// sameStep compares two probe outcomes on every field, floats by bits.
func sameStep(a, b StepResult) bool {
	return a.Reject == b.Reject && a.Certified == b.Certified && a.Branch == b.Branch &&
		math.Float64bits(a.PrefixArea) == math.Float64bits(b.PrefixArea) &&
		math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan) &&
		sameSchedule(a.Schedule, b.Schedule)
}

func sameSchedule(a, b *schedule.Schedule) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Algorithm == b.Algorithm && reflect.DeepEqual(a.Placements, b.Placements)
}

// A closed Interrupt channel aborts the search before the first probe with
// ErrInterrupted — the deterministic core of the engine's timeout.
func TestApproximateInterrupt(t *testing.T) {
	ch := make(chan struct{})
	close(ch)
	in := instance.Mixed(1, 20, 8)
	_, err := Approximate(in, Options{Interrupt: ch})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	// A nil channel must never fire.
	if _, err := Approximate(in, Options{}); err != nil {
		t.Fatal(err)
	}
}
