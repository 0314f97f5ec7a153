package core

import (
	"math"
	"slices"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// reuseOracle drives one long-lived Scratch through probes and holds each
// outcome to what a brand-new Scratch returns for the same guess: the list
// drafts the Scratch keeps from earlier probes must never show.
type reuseOracle struct {
	t  *testing.T
	sc *Scratch
	p  Params
}

// probe is one dual step on the shared Scratch, through the Prober seam.
func (o reuseOracle) probe(ctx string, in *instance.Instance, c *instance.Compiled, lambda float64) StepResult {
	o.t.Helper()
	got := DualProber{}.Probe(in, c, lambda, o.p, o.sc, nil)
	want := freshProber{}.Probe(in, c, lambda, o.p, nil, nil)
	if !sameStep(got, want) {
		o.t.Fatalf("%s λ=%v: shared scratch %+v, fresh scratch %+v", ctx, lambda, got, want)
	}
	return got
}

// lists compares the drafts themselves, winners or not: the malleable
// list after its deadline check and the canonical pair.
func (o reuseOracle) lists(ctx string, c *instance.Compiled, lambda float64) {
	o.t.Helper()
	fresh := NewScratch()
	pair := func(sc *Scratch) [2]draft {
		e := filled(&sc.seg, c, lambda)
		a := allotmentOf(e, lambda)
		if !a.OK {
			return [2]draft{}
		}
		if !sc.canonicalPair(c, e, a, e.Val.sortedOrder(c, a, &sc.keys), func() bool { return false }) {
			o.t.Fatalf("%s λ=%v: canonicalPair stopped by a stop that never fires", ctx, lambda)
		}
		return sc.clist
	}
	got, want := pair(o.sc), pair(fresh)
	for k := range got {
		if !sameDraft(got[k], want[k]) {
			o.t.Fatalf("%s λ=%v: canonical draft %d on the shared scratch %+v, fresh %+v", ctx, lambda, k, got[k], want[k])
		}
	}
	if g, w := malleableList(c, lambda, o.sc), malleableList(c, lambda, fresh); !sameDraft(g, w) {
		o.t.Fatalf("%s λ=%v: malleable draft on the shared scratch %+v, fresh %+v", ctx, lambda, g, w)
	}
}

func sameDraft(a, b draft) bool {
	if a.built() != b.built() {
		return false
	}
	return !a.built() || a.algorithm == b.algorithm &&
		math.Float64bits(a.makespan) == math.Float64bits(b.makespan) &&
		slices.EqualFunc(a.placements, b.placements, func(x, y schedule.Placement) bool {
			return x.Task == y.Task && x.Start == y.Start && x.Width == y.Width && x.First == y.First
		})
}

// acceptedGuesses returns the accepted guesses of a cold search in probe
// order, and the whole guess sequence.
func acceptedGuesses(t *testing.T, in *instance.Instance, c *instance.Compiled) (accepted, all []float64) {
	t.Helper()
	var tr SolveTrace
	if _, err := Approximate(in, Options{Compiled: c, Trace: &tr}); err != nil {
		t.Fatal(err)
	}
	for _, pr := range tr.Probes {
		all = append(all, pr.Lambda)
		if pr.Accepted {
			accepted = append(accepted, pr.Lambda)
		}
	}
	return accepted, all
}

// sequentialGuess returns a deadline at which every task of in runs on one
// processor, and so at its relaxed deadline too: their canonical
// allotments are one entry.
func sequentialGuess(in *instance.Instance) float64 {
	var l float64
	for _, tk := range in.Tasks {
		l = max(l, tk.SeqTime())
	}
	return 2 * l
}

// firedGuess returns a 24×16 instance and an accepted guess whose
// reallocation pass fires, so its canonical pair takes two passes.
func firedGuess(t *testing.T) (*instance.Instance, *instance.Compiled, float64) {
	t.Helper()
	sc := NewScratch()
	for seed := int64(0); seed < 64; seed++ {
		in := instance.Mixed(seed, 24, 16)
		c := instance.Compile(in)
		lb := lowerbound.Trivial(in)
		for _, f := range []float64{1.05, 1.1, 1.2, 1.35, 1.5, 2, 3} {
			if dualStep(c, lb*f, DefaultParams(), sc, nil).Schedule == nil {
				continue
			}
			e := filled(&sc.seg, c, lb*f)
			a := allotmentOf(e, lb*f)
			if _, fired := canonicalListFromAllotment(c, a, e.Val.sortedOrder(c, a, &sc.keys), true, sc); fired {
				return in, c, lb * f
			}
		}
	}
	t.Fatal("no guess of the grid fires the reallocation")
	return nil, nil, 0
}

// The list drafts a Scratch keeps are invisible: whatever order the probes
// come in, whatever was recycled, interrupted or interleaved in between,
// every outcome is the fresh-scratch one by bits and placements.
func TestListDraftReuseInvisible(t *testing.T) {
	const n, m = 24, 16
	o := reuseOracle{t: t, sc: NewScratch(), p: DefaultParams()}
	in := instance.Mixed(9, n, m)
	c := instance.Compile(in)
	lb := lowerbound.Trivial(in)
	accepted, all := acceptedGuesses(t, in, c)

	// Two accepted guesses of different canonical allotments.
	var lamA, lamB float64
	{
		var st segState
		lamA = accepted[0]
		sumA := filled(&st, c, lamA).Sum
		for _, l := range accepted[1:] {
			if filled(&st, c, l).Sum != sumA {
				lamB = l
			}
		}
		if lamB == 0 {
			t.Fatal("the search accepted one allotment only; pick another instance")
		}
	}

	t.Run("bisection order, then every guess twice", func(t *testing.T) {
		for _, l := range all {
			o.probe("bisection", in, c, l)
		}
		for _, l := range all {
			o.probe("repeat", in, c, l)
			o.probe("repeat", in, c, l)
		}
	})

	t.Run("A-B-A", func(t *testing.T) {
		for _, l := range []float64{lamA, lamB, lamA, lamA, lamB, lamB, lamA} {
			o.probe("A-B-A", in, c, l)
			o.lists("A-B-A", c, l)
		}
	})

	t.Run("one relaxed allotment on both sides of the Theorem-1 check", func(t *testing.T) {
		// Deadlines of one relaxed allotment, one below and one above the
		// makespan of the list it determines. Below the trivial bound, so
		// dualStep never gets there (Theorem 1 holds where the area test
		// passes): the construction is driven directly.
		type sides struct{ pass, fail float64 }
		bySum := map[int]*sides{}
		for k := 0; k < 400; k++ {
			lambda := lb * (0.5 + float64(k)/400)
			var st segState
			e := filled(&st, c, RhoList(m)*lambda)
			if !e.OK {
				continue
			}
			d := buildMalleableList(c, e.Gamma, NewScratch())
			if !d.built() {
				continue
			}
			s := bySum[e.Sum]
			if s == nil {
				s = &sides{}
				bySum[e.Sum] = s
			}
			if task.Leq(d.makespan, RhoList(m)*lambda) {
				s.pass = lambda
			} else {
				s.fail = lambda
			}
		}
		straddled := 0
		for _, s := range bySum {
			if s.pass == 0 || s.fail == 0 {
				continue
			}
			straddled++
			builds := o.sc.mlistBuilds
			for _, l := range []float64{s.pass, s.fail, s.pass, s.fail, s.fail} {
				o.lists("Theorem-1 check", c, l)
			}
			if got := o.sc.mlistBuilds - builds; got > 1 {
				t.Fatalf("five deadlines of one relaxed allotment built %d lists", got)
			}
			if malleableList(c, s.fail, o.sc).built() || !malleableList(c, s.pass, o.sc).built() {
				t.Fatalf("λ=%v should fail the deadline check and λ=%v pass it", s.fail, s.pass)
			}
		}
		if straddled == 0 {
			t.Fatal("no relaxed allotment straddles its list's makespan; the check's reject side went untested")
		}
	})

	// Both lists look their allotments up in one index, and recycling is
	// last in, first out: a probe whose two deadlines land on two entries
	// hands them back swapped (the relaxed one is freed last), so neither
	// list lookup meets the entry its own tag names. A deadline whose
	// relaxed deadline lands on the same allotment — every task sequential —
	// tags one entry twice, and the next such probe, of another instance,
	// then reaches both: its canonical lookup recycles the entry, and its
	// malleable lookup hits it again, trusting only what the recycling reset.
	t.Run("DropCompiled hands the tagged entries to another allotment", func(t *testing.T) {
		// One probe on private tables leaves one entry, tagged by both
		// lists; dropping the tables puts it on top of the free list, so
		// the next new allotment — of another instance — gets it back.
		other := instance.Mixed(10, n, m)
		oc := instance.Compile(other)
		for round := 0; round < 3; round++ {
			priv := instance.Compile(in)
			o.probe("before drop", in, priv, sequentialGuess(in))
			tagged := o.sc.clistOf
			if tagged == nil || o.sc.mlistOf != tagged {
				t.Fatalf("tags %p %p: the probe did not tag one entry twice", tagged, o.sc.mlistOf)
			}
			o.sc.DropCompiled(oc)
			o.sc.DropCompiled(priv)
			l := sequentialGuess(other) * (1 + 0.5*float64(round))
			o.probe("after drop", other, oc, l)
			if o.sc.clistOf != tagged || o.sc.mlistOf != tagged {
				t.Fatalf("round %d: the recycled entries were not the tagged one (%p %p vs %p); the test no longer reaches the hazard", round, o.sc.clistOf, o.sc.mlistOf, tagged)
			}
			o.lists("after drop", oc, l)
			o.probe("back", in, c, lamA)
		}
	})

	t.Run("the wholesale clear hands the tagged entries to another allotment", func(t *testing.T) {
		// A breakpoint-dense instance: more distinct allotments below the
		// tagged guess than the cap holds, all of one instance, so the clear
		// frees them in deadline order and the tagged entry — the largest
		// deadline — is the first handed out again.
		dense := instance.PowerLawFamily(3, 40, 64, 0.83)
		dc := instance.Compile(dense)
		axis := dc.GlobalBreakpoints()
		big := axis[len(axis)-1] // every task sequential, at ρ·big too
		feasible := firstFeasible(dc, axis)
		// Two entries short of the cap, so the tagged guess's reservation
		// fits and the next probe's does not.
		st := &o.sc.seg
		st.Drop(nil)
		for k := feasible; axis[k] < big && st.Stats().Entries < instance.SegmentCap-2; k++ {
			filled(st, dc, axis[k])
		}
		if n := st.Stats().Entries; n < instance.SegmentCap-2 {
			t.Fatalf("only %d distinct allotments below the tagged guess; the cap is out of reach", n)
		}
		o.probe("at the cap", dense, dc, big)
		tagged := o.sc.clistOf
		if n := st.Stats().Entries; n != instance.SegmentCap-1 || tagged == nil || o.sc.mlistOf != tagged {
			t.Fatalf("the index holds %d entries, tags %p %p: the next probe would not clear, or one entry is not tagged twice", n, tagged, o.sc.mlistOf)
		}
		other := instance.Mixed(10, n, m)
		oc := instance.Compile(other)
		next := sequentialGuess(other)
		o.probe("after the clear", other, oc, next)
		if o.sc.clistOf != tagged || o.sc.mlistOf != tagged || st.Stats().Entries != 1 {
			t.Fatal("the recycled entry was not the tagged one; the test no longer reaches the hazard")
		}
		o.lists("after the clear", oc, next)
		o.probe("back at the tagged guess", dense, dc, big)
	})

	t.Run("a probe at the cap edge", func(t *testing.T) {
		// One entry short of the cap, all below a guess whose deadline and
		// relaxed deadline are both new allotments: the probe's own entry
		// fills the cap and is the index's last, so were the relaxed lookup
		// to clear the index, it would recycle the entry the probe still
		// holds. The probe reserves room for both lookups before the first.
		dense := instance.PowerLawFamily(3, 40, 64, 0.83)
		dc := instance.Compile(dense)
		axis := dc.GlobalBreakpoints()
		lambda := axis[len(axis)-1] * 0.3
		st := &o.sc.seg
		st.Drop(nil)
		for k := firstFeasible(dc, axis); axis[k] < lambda && st.Stats().Entries < instance.SegmentCap-1; k++ {
			filled(st, dc, axis[k])
		}
		if n := st.Stats().Entries; n != instance.SegmentCap-1 {
			t.Fatalf("only %d distinct allotments below the guess; the cap is out of reach", n)
		}
		var fresh segState
		if e, r := filled(&fresh, dc, lambda), filled(&fresh, dc, RhoList(dc.M())*lambda); e == r {
			t.Fatal("the guess and its relaxed deadline share an allotment")
		}
		o.probe("at the cap edge", dense, dc, lambda)
		want := NewScratch()
		dualStep(dc, lambda, o.p, want, nil)
		for k := range want.clist {
			if !sameDraft(o.sc.clist[k], want.clist[k]) {
				t.Fatalf("canonical draft %d at the cap edge %+v, fresh scratch %+v", k, o.sc.clist[k], want.clist[k])
			}
		}
		if !sameDraft(o.sc.mlist, want.mlist) {
			t.Fatalf("malleable draft at the cap edge %+v, fresh scratch %+v", o.sc.mlist, want.mlist)
		}
	})

	t.Run("an interrupt between the canonical passes", func(t *testing.T) {
		in, c, fired := firedGuess(t)
		lamA := fired * 4 // every task sequential: another allotment
		o.probe("pair of A", in, c, lamA)
		e := filled(&o.sc.seg, c, fired)
		if e == o.sc.clistOf {
			t.Fatal("the fired guess is the tagged allotment")
		}
		a := allotmentOf(e, fired)
		polls := 0
		if o.sc.canonicalPair(c, e, a, e.Val.sortedOrder(c, a, &o.sc.keys), func() bool { polls++; return true }) || polls != 1 {
			t.Fatalf("canonicalPair polled %d times and was not stopped between its passes", polls)
		}
		if o.sc.clistOf != nil {
			t.Fatal("half a canonical pair is tagged")
		}
		o.probe("clean probe after the interrupt", in, c, fired)
		o.lists("clean probe after the interrupt", c, fired)
		o.probe("pair of A again", in, c, lamA)

		// Through dualStep itself: a closed channel stops the probe at its
		// first poll, wherever the tags stand.
		closed := make(chan struct{})
		close(closed)
		if r := dualStep(c, fired, o.p, o.sc, closed); !r.Interrupted {
			t.Fatalf("probe on a closed interrupt channel returned %+v", r)
		}
		o.probe("after the interrupted probe", in, c, fired)
	})

	t.Run("exported one-shots on the same scratch", func(t *testing.T) {
		// The one-shots borrow from scratchPool; a single goroutine gets
		// back what it put, except when the pool drops it (a GC, or the
		// race detector's random drops) — so try until it was seen to run
		// on o.sc: its canonical pass clears the tag, its malleable list
		// moves it.
		sawCanonical, sawMalleable := false, false
		for try := 0; try < 64 && !(sawCanonical && sawMalleable); try++ {
			o.probe("tagged", in, c, lamA)
			tagged, mtagged := o.sc.clistOf, o.sc.mlistOf
			putScratch(o.sc)
			if CanonicalList(in, lamB, true) == nil || MalleableList(in, lamB) == nil {
				t.Fatal("one-shots built nothing at an accepted guess")
			}
			sawCanonical = sawCanonical || o.sc.clistOf != tagged
			sawMalleable = sawMalleable || o.sc.mlistOf != mtagged
			o.probe("after the one-shots", in, c, lamA)
			o.lists("after the one-shots", c, lamA)
		}
		if !sawCanonical || !sawMalleable {
			t.Fatal("the one-shots never ran on the scratch under test")
		}
	})
}

// A probe builds what changed: a repeat on the tagged allotment builds no
// list, and a whole 24×16 search — whose accepted guesses only decrease,
// so repeats of an allotment are consecutive — builds strictly fewer
// canonical pairs and malleable lists than it has accepted probes.
func TestSearchBuildsFewerListsThanItAccepts(t *testing.T) {
	p := DefaultParams()
	in := instance.Mixed(9, 24, 16)
	c := instance.Compile(in)
	sc := NewScratch()
	lambda := lowerbound.Trivial(in) * 1.5
	if r := dualStep(c, lambda, p, sc, nil); r.Schedule == nil {
		t.Fatalf("probe rejected: %v", r.Reject)
	}
	cb, mb := sc.clistBuilds, sc.mlistBuilds
	for _, l := range []float64{lambda, math.Nextafter(lambda, 0), lambda} {
		if e := filled(&sc.seg, c, l); e != sc.clistOf {
			t.Fatalf("λ=%v is another allotment", l)
		}
		dualStep(c, l, p, sc, nil)
	}
	if sc.clistBuilds != cb || sc.mlistBuilds != mb {
		t.Fatalf("repeat probes on the tagged allotment built %d canonical pairs and %d malleable lists, want 0 and 0", sc.clistBuilds-cb, sc.mlistBuilds-mb)
	}

	accepted, cbuilds, mbuilds := 0, 0, 0
	for seed := int64(0); seed < 32; seed++ {
		in := instance.Mixed(seed, 24, 16)
		c := instance.Compile(in)
		sc := NewScratch()
		acc, _ := acceptedGuesses(t, in, c) // a search of its own, on its own Scratch
		if _, err := Approximate(in, Options{Compiled: c, Scratch: sc}); err != nil {
			t.Fatal(err)
		}
		if sc.clistBuilds > len(acc) || sc.mlistBuilds > len(acc) {
			t.Fatalf("seed %d: %d canonical pairs and %d malleable lists for %d accepted probes", seed, sc.clistBuilds, sc.mlistBuilds, len(acc))
		}
		accepted, cbuilds, mbuilds = accepted+len(acc), cbuilds+sc.clistBuilds, mbuilds+sc.mlistBuilds
	}
	t.Logf("32 searches: %d accepted probes, %d canonical pairs, %d malleable lists built", accepted, cbuilds, mbuilds)
	if cbuilds >= accepted || mbuilds >= accepted {
		t.Fatalf("%d canonical pairs and %d malleable lists built for %d accepted probes: nothing was reused", cbuilds, mbuilds, accepted)
	}
}
