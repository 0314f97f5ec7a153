package instance

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"malsched/internal/task"
)

// boundDeadlines is the deterministic deadline grid of the τ tests: 0 and
// the subnormals, powers of two over 2^±600 with their float neighbours,
// random magnitudes over the same range, and the domain edge with its
// neighbours. Every entry lies in [0, boundLimit].
func boundDeadlines() []float64 {
	up, down := math.Inf(1), math.Inf(-1)
	ls := []float64{0, 5e-324, 1e-310, math.SmallestNonzeroFloat64 * 3, 0x1p-1022,
		math.Nextafter(0x1p-1022, down), task.Eps, 1, 2, 1e9, 1e15,
		boundLimit, math.Nextafter(boundLimit, down), math.Nextafter(math.Nextafter(boundLimit, down), down)}
	for e := -600; e <= 600; e += 7 {
		p := math.Ldexp(1, e)
		ls = append(ls, p, math.Nextafter(p, up), math.Nextafter(p, down))
	}
	rng := rand.New(rand.NewSource(37))
	for k := 0; k < 20000; k++ {
		ls = append(ls, math.Ldexp(1+rng.Float64(), rng.Intn(1201)-600))
	}
	return ls
}

// checkBoundAt holds τ(λ) to task.Leq on the lattice neighbourhood of τ
// (radius float steps each side), on random times of every magnitude, and
// on the special values; it reports how many times it compared.
func checkBoundAt(t *testing.T, lambda float64, radius int, rng *rand.Rand) int {
	t.Helper()
	tau, ok := leqBound(lambda)
	if !ok {
		t.Fatalf("λ=%v (bits %#x): no bound found in the domain", lambda, math.Float64bits(lambda))
	}
	check := func(x float64) {
		if x > boundLimit {
			return // outside the domain the fallback answers
		}
		if want, got := task.Leq(x, lambda), x <= tau; want != got {
			t.Fatalf("λ=%v τ=%v t=%v: task.Leq=%v, t ≤ τ=%v", lambda, tau, x, want, got)
		}
	}
	n := 0
	for x, k := tau, 0; k <= radius; k++ {
		check(x)
		x = math.Nextafter(x, math.Inf(1))
		n++
	}
	for x, k := tau, 0; k < radius; k++ {
		x = math.Nextafter(x, math.Inf(-1))
		check(x)
		n++
	}
	for k := 0; k < 8; k++ {
		check(lambda * (1 + 4e-9*(rng.Float64()-0.5)))
		check(math.Ldexp(rng.Float64(), rng.Intn(2000)-1000))
		n += 2
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -1, math.Inf(-1), -math.MaxFloat64, math.NaN(), 5e-324, lambda} {
		check(x)
		n++
	}
	return n
}

// TestBoundMatchesLeq sweeps the deadline grid: at every λ the bound must
// be found, and t ≤ τ(λ) must answer task.Leq(t, λ) for every time in the
// domain — the whole lattice neighbourhood of τ, where an inexact bound
// would first diverge.
func TestBoundMatchesLeq(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 0
	for _, l := range boundDeadlines() {
		n += checkBoundAt(t, l, 300, rng)
	}
	t.Logf("%d compares, 0 mismatches", n)
}

// TestBoundMonotone: τ is non-decreasing in λ — on the grid in ascending
// order and between each deadline and its successor float. That is the
// premise Gamma's non-increase in λ rests on, and with it the Σγ key of
// the segment caches.
func TestBoundMonotone(t *testing.T) {
	ls := boundDeadlines()
	slices.Sort(ls)
	var prevL, prevTau float64
	for k, l := range ls {
		tau, _ := leqBound(l)
		if next := math.Nextafter(l, math.Inf(1)); next <= boundLimit {
			if tn, _ := leqBound(next); tn < tau {
				t.Fatalf("τ(%v) = %v > τ(%v) = %v", l, tau, next, tn)
			}
		}
		if k > 0 && tau < prevTau {
			t.Fatalf("τ(%v) = %v > τ(%v) = %v", prevL, prevTau, l, tau)
		}
		prevL, prevTau = l, tau
	}
}

// FuzzBoundMatchesLeq: for any deadline and time, a one-entry row's γ
// equals task.Canonical's — through τ inside the domain, through the
// task.Leq fallback outside it — and inside the domain t ≤ τ(λ) is
// task.Leq(t, λ) itself.
func FuzzBoundMatchesLeq(f *testing.F) {
	f.Add(1.0, 1.000000002)
	f.Add(5e-324, 1e-9)
	f.Add(boundLimit, boundLimit)
	f.Add(math.Inf(1), 1.0)
	f.Fuzz(func(t *testing.T, lambda, x float64) {
		in := &Instance{Name: "fuzz", M: 2, Tasks: []task.Task{unchecked(x), unchecked(x, 0.5*x)}}
		c := Compile(in)
		b := c.Bound(lambda)
		for i, tk := range in.Tasks {
			wantG, wantOK := tk.Canonical(lambda)
			if g, ok := c.GammaAt(i, b); g != wantG || ok != wantOK {
				t.Fatalf("λ=%v t=%v row %d: GammaAt=(%d,%v), Canonical=(%d,%v) (exact %v)", lambda, x, i, g, ok, wantG, wantOK, b.exact)
			}
		}
		if lambda >= 0 && lambda <= boundLimit && x <= boundLimit {
			tau, ok := leqBound(lambda)
			if !ok {
				t.Fatalf("λ=%v: no bound found in the domain", lambda)
			}
			if want, got := task.Leq(x, lambda), x <= tau; want != got {
				t.Fatalf("λ=%v τ=%v t=%v: task.Leq=%v, t ≤ τ=%v", lambda, tau, x, want, got)
			}
		}
	})
}
