package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
)

// freshProber is the reference side of the shared-vs-fresh-scratch oracle:
// the paper's dual step on a brand-new Scratch per probe, so no λ-segment
// entry written by an earlier probe — of this search or any other — can
// answer a later one. Whatever a search on a long-lived Scratch returns
// must equal what this prober drives it to; a stale or mis-keyed segment
// entry shows up as a difference.
type freshProber struct{}

func (freshProber) Probe(in *instance.Instance, c *instance.Compiled, lambda float64, p Params, _ *Scratch, interrupt <-chan struct{}) StepResult {
	return DualProber{}.Probe(in, c, lambda, p, NewScratch(), interrupt)
}

// assertSameResult compares every Result field by bits and the placements
// deep-equal.
func assertSameResult(t *testing.T, ctx string, got, want Result) {
	t.Helper()
	if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) ||
		math.Float64bits(got.LowerBound) != math.Float64bits(want.LowerBound) ||
		math.Float64bits(got.AcceptedLambda) != math.Float64bits(want.AcceptedLambda) ||
		got.Branch != want.Branch ||
		got.Probes != want.Probes ||
		got.Synthesized != want.Synthesized ||
		got.UnprovenRejects != want.UnprovenRejects {
		t.Fatalf("%s: got %+v, want %+v", ctx, got, want)
	}
	if !sameSchedule(got.Schedule, want.Schedule) {
		t.Fatalf("%s: plans differ", ctx)
	}
}

// The λ-segment caches must be invisible in the output: one Scratch shared
// by every search of the grid — entries of many instances side by side,
// repeat solves answered from warm segments, the wholesale clear at the
// cap — returns bit for bit what a search probing on a fresh Scratch per
// probe returns.
func TestSegmentCacheInvisible(t *testing.T) {
	shared := NewScratch()
	for name, gen := range instance.Families() {
		for seed := int64(0); seed < 3; seed++ {
			for _, dims := range [][2]int{{25, 16}, {40, 64}} {
				in := gen(seed, dims[0], dims[1])
				c := instance.Compile(in)
				want, err := Approximate(in, Options{Compiled: c, Prober: freshProber{}})
				if err != nil {
					t.Fatalf("%s/%d: fresh-scratch reference: %v", name, seed, err)
				}
				// Twice: the second solve finds every segment cached.
				for pass := 0; pass < 2; pass++ {
					got, err := Approximate(in, Options{Compiled: c, Scratch: shared})
					if err != nil {
						t.Fatalf("%s/%d: shared scratch: %v", name, seed, err)
					}
					assertSameResult(t, name, got, want)
				}
			}
		}
	}
}

// Where the tables come from must be invisible too: auto-compiled and
// caller-compiled both return what the fresh-scratch reference returns.
func TestApproximateCompiledBitIdentical(t *testing.T) {
	for name, gen := range instance.Families() {
		for seed := int64(0); seed < 3; seed++ {
			for _, dims := range [][2]int{{25, 16}, {40, 64}} {
				in := gen(seed, dims[0], dims[1])
				c := instance.Compile(in)
				for _, opts := range []Options{
					{},            // auto-compiled
					{Compiled: c}, // caller-compiled
				} {
					ref := opts
					ref.Prober = freshProber{}
					want, err := Approximate(in, ref)
					if err != nil {
						t.Fatalf("%s/%d: reference %+v: %v", name, seed, opts, err)
					}
					got, err := Approximate(in, opts)
					if err != nil {
						t.Fatalf("%s/%d: %+v: %v", name, seed, opts, err)
					}
					assertSameResult(t, name, got, want)
				}
			}
		}
	}
}

// Probe-level equivalence, including rejects: at deadlines spanning
// certified-reject territory through comfortable accepts, a dualStep on one
// Scratch shared across all instances must agree with a dualStep on a fresh
// Scratch on every field.
func TestDualStepCompiledMatchesLegacy(t *testing.T) {
	p := DefaultParams()
	shared := NewScratch()
	for name, gen := range instance.Families() {
		for seed := int64(0); seed < 3; seed++ {
			in := gen(seed, 30, 16)
			c := instance.Compile(in)
			lb := lowerbound.Trivial(in)
			for _, f := range []float64{0.3, 0.7, 1, 1.3, 2, 4, 16} {
				lambda := lb * f
				rf := dualStep(c, lambda, p, NewScratch(), nil)
				// Probe twice per λ so the second shared probe answers from
				// a warm segment cache — it must not matter.
				for pass := 0; pass < 2; pass++ {
					if rs := dualStep(c, lambda, p, shared, nil); !sameStep(rs, rf) {
						t.Fatalf("%s/%d λ=%v pass %d: %+v vs fresh %+v", name, seed, lambda, pass, rs, rf)
					}
				}
			}
		}
	}
}

// A breakpoint-dense workload (all-distinct profile times, the worst case
// for the threshold tables: nearly every probe opens a new segment) must
// also match the fresh-scratch reference, on a cold and a warm Scratch.
func TestApproximateCompiledDenseProfiles(t *testing.T) {
	in := instance.PowerLawFamily(3, 30, 48, 0.83)
	c := instance.Compile(in)
	shared := NewScratch()
	want, err := Approximate(in, Options{Compiled: c, Prober: freshProber{}})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := Approximate(in, Options{Compiled: c, Scratch: shared})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "dense", got, want)
	}
}

// firstFeasible returns the index of the smallest breakpoint of axis every
// task can meet.
func firstFeasible(c *instance.Compiled, axis []float64) int {
	var st segState
	return sort.Search(len(axis), func(k int) bool {
		e, _ := st.Lookup(c, 0, axis[k])
		return e.OK
	})
}

// rangeDeadlines is a seeded deadline sequence over one compiled instance,
// built to exercise every arm of the range list: a sweep from the largest
// breakpoint down past the smallest deadline an allotment exists for (each
// new entry goes in at the front, the last few lookups meet the uncached
// verdict), a cluster on the float lattice around one breakpoint (ranges
// one ulp apart), and repeats over a handful of points inside segments
// (hits, and ranges widened from both ends).
func rangeDeadlines(rng *rand.Rand, c *instance.Compiled) []float64 {
	axis := c.GlobalBreakpoints()
	feasible := firstFeasible(c, axis)
	var seq []float64
	step := (len(axis)-feasible)/40 + 1
	for k := len(axis) - 1; k >= max(feasible-3, 0); k -= step {
		seq = append(seq, axis[k])
	}
	b := axis[feasible+rng.Intn(len(axis)-feasible)]
	cluster := []float64{b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)), b * (1 + 1e-13), b * (1 - 1e-13)}
	for rep := 0; rep < 3; rep++ {
		rng.Shuffle(len(cluster), func(i, j int) { cluster[i], cluster[j] = cluster[j], cluster[i] })
		seq = append(seq, cluster...)
	}
	var inside []float64
	for len(inside) < 6 {
		k := max(feasible, 1) + rng.Intn(len(axis)-max(feasible, 1))
		inside = append(inside, axis[k-1]+(axis[k]-axis[k-1])*rng.Float64())
	}
	for rep := 0; rep < 20; rep++ {
		seq = append(seq, inside[rng.Intn(len(inside))])
	}
	return seq
}

// The observed-range list against brute force: whatever went through a
// segState before — other deadlines of the same instance in any order,
// other instances interleaved, a second tag on one of them, a drop
// mid-sequence, wholesale clears that recycle entries and lists — every
// lookup answers what a lookup on a brand-new segState answers, the lazily
// filled order and prefix area included, and every list keeps its shape:
// ranges disjoint and ascending, sums strictly descending. The tags of one
// instance never share an entry, and a drop evicts both. A second pass over
// deadlines it has seen scans no threshold row except for the deadlines no
// allotment exists for.
func TestObservedRangesMatchFreshLookups(t *testing.T) {
	var st segState
	seen := map[*instance.Compiled]bool{}
	shape := func(lambda float64) {
		t.Helper()
		total := 0
		for c := range seen {
			for tag := uint64(0); tag < 2; tag++ {
				list := st.Ranges(c, tag)
				total += len(list)
				for j, e := range list {
					if !(e.Lo <= e.Hi) || (j > 0 && !(list[j-1].Hi < e.Lo && list[j-1].Sum > e.Sum)) {
						t.Fatalf("λ=%v: range %d [%v, %v] Σγ=%d out of order after [%v, %v] Σγ=%d",
							lambda, j, e.Lo, e.Hi, e.Sum, list[max(j, 1)-1].Lo, list[max(j, 1)-1].Hi, list[max(j, 1)-1].Sum)
					}
				}
			}
		}
		if got := st.Stats().Entries; total != got {
			t.Fatalf("λ=%v: %d entries cached, the index counts %d", lambda, total, got)
		}
	}
	lookup := func(c *instance.Compiled, lambda float64) *segEntry {
		t.Helper()
		seen[c] = true
		got := filled(&st, c, lambda)
		var fresh segState
		want := filled(&fresh, c, lambda)
		if got.OK != want.OK || got.Slowest != want.Slowest {
			t.Fatalf("λ=%v: verdict (%v, slowest %d), fresh lookup (%v, slowest %d)", lambda, got.OK, got.Slowest, want.OK, want.Slowest)
		}
		if got.OK {
			a, wa := allotmentOf(got, lambda), allotmentOf(want, lambda)
			var keys []float64
			order, worder := got.Val.sortedOrder(c, a, &keys), want.Val.sortedOrder(c, wa, &keys)
			if !slices.Equal(a.Gamma, wa.Gamma) || !slices.Equal(order, worder) ||
				math.Float64bits(got.Work) != math.Float64bits(want.Work) ||
				math.Float64bits(got.Val.area) != math.Float64bits(want.Val.area) {
				t.Fatalf("λ=%v: cached tables differ from a fresh lookup's:\n got %+v\nwant %+v", lambda, *got, *want)
			}
		}
		shape(lambda)
		return got
	}
	// tagged looks λ up under tag 1 of c: the same allotment as tag 0's,
	// never the same entry.
	tagged := func(c *instance.Compiled, lambda float64) {
		t.Helper()
		e, _ := st.Lookup(c, 1, lambda)
		want := filled(&st, c, lambda)
		if e.OK != want.OK || (e.OK && (e == want || !slices.Equal(e.Gamma, want.Gamma))) {
			t.Fatalf("λ=%v: tag 1 entry %p (ok %v), tag 0 entry %p (ok %v)", lambda, e, e.OK, want, want.OK)
		}
		shape(lambda)
	}
	compiled := func(seed int64) *instance.Compiled {
		return instance.Compile(instance.Mixed(seed, 20+int(seed%3)*5, 8+int(seed%2)*8))
	}
	rng := rand.New(rand.NewSource(17))

	// Three instances interleaved, the second under two tags and dropped
	// mid-sequence.
	trio := []*instance.Compiled{compiled(1), compiled(2), compiled(3)}
	seqs := [][]float64{rangeDeadlines(rng, trio[0]), rangeDeadlines(rng, trio[1]), rangeDeadlines(rng, trio[2])}
	for k := 0; k < len(seqs[0]); k++ {
		for i, c := range trio {
			lookup(c, seqs[i][k%len(seqs[i])])
		}
		tagged(trio[1], seqs[1][(3*k)%len(seqs[1])])
		if k == len(seqs[0])/2 {
			if len(st.Ranges(trio[1], 0)) == 0 || len(st.Ranges(trio[1], 1)) == 0 {
				t.Fatal("the dropped instance holds no entries under one of its tags")
			}
			st.Drop(trio[1])
			if len(st.Ranges(trio[1], 0)) != 0 || len(st.Ranges(trio[1], 1)) != 0 {
				t.Fatal("Drop left entries of the dropped instance under one of its tags")
			}
		}
	}

	// Enough distinct instances to cross the entry cap more than twice.
	clears, prev := 0, st.Stats().Entries
	for seed := int64(10); seed < 70; seed++ {
		c := compiled(seed)
		for _, l := range rangeDeadlines(rng, c) {
			lookup(c, l)
			if st.Stats().Entries < prev {
				clears++
			}
			prev = st.Stats().Entries
		}
	}
	if clears < 2 {
		t.Fatalf("only %d wholesale clears; the test no longer reaches the recycling path", clears)
	}
	if stats := st.Stats(); stats.FreeEntries == 0 || stats.FreeLists == 0 {
		t.Fatal("nothing was recycled")
	}

	// A repeat pass: only deadlines without an allotment scan again.
	st.Drop(nil)
	for pass := 0; pass < 2; pass++ {
		staged, infeasible := st.Stats().Staged, 0
		for i, c := range trio {
			for _, l := range seqs[i] {
				if !lookup(c, l).OK {
					infeasible++
				}
			}
		}
		if scans := st.Stats().Staged - staged; pass == 1 && scans != infeasible {
			t.Fatalf("repeat pass staged γ %d times, %d of them for deadlines without an allotment", scans, infeasible)
		}
		if pass == 1 && infeasible == 0 {
			t.Fatal("no deadline of the sequences is infeasible; the uncached verdict went untested")
		}
	}
}
