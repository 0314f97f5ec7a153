package core

import (
	"math"
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
		got.Speculated != want.Speculated ||
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
// probe returns, sequentially and speculatively.
func TestSegmentCacheInvisible(t *testing.T) {
	shared := NewScratch()
	for name, gen := range instance.Families() {
		for seed := int64(0); seed < 3; seed++ {
			for _, dims := range [][2]int{{25, 16}, {40, 64}} {
				in := gen(seed, dims[0], dims[1])
				c := instance.Compile(in)
				for _, par := range []int{1, 4} {
					want, err := Approximate(in, Options{Compiled: c, Parallelism: par, Prober: freshProber{}})
					if err != nil {
						t.Fatalf("%s/%d: fresh-scratch reference: %v", name, seed, err)
					}
					// Twice: the second solve finds every segment cached.
					for pass := 0; pass < 2; pass++ {
						got, err := Approximate(in, Options{Compiled: c, Parallelism: par, Scratch: shared})
						if err != nil {
							t.Fatalf("%s/%d: shared scratch: %v", name, seed, err)
						}
						assertSameResult(t, name, got, want)
					}
				}
			}
		}
	}
}

// Where the tables come from must be invisible too: auto-compiled,
// caller-compiled and caller-compiled at a speculative width all return
// what the fresh-scratch reference returns.
func TestApproximateCompiledBitIdentical(t *testing.T) {
	for name, gen := range instance.Families() {
		for seed := int64(0); seed < 3; seed++ {
			for _, dims := range [][2]int{{25, 16}, {40, 64}} {
				in := gen(seed, dims[0], dims[1])
				c := instance.Compile(in)
				for _, opts := range []Options{
					{},                            // auto-compiled
					{Compiled: c},                 // caller-compiled
					{Compiled: c, Parallelism: 4}, // compiled + speculative
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
// also match the fresh-scratch reference, at every parallelism.
func TestApproximateCompiledDenseProfiles(t *testing.T) {
	in := instance.PowerLawFamily(3, 30, 48, 0.83)
	c := instance.Compile(in)
	shared := NewScratch()
	for _, k := range []int{1, 2, 8} {
		want, err := Approximate(in, Options{Compiled: c, Parallelism: k, Prober: freshProber{}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Approximate(in, Options{Compiled: c, Parallelism: k, Scratch: shared})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "dense", got, want)
	}
}
