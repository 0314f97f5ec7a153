package task

import (
	"fmt"
	"math"
	"testing"
)

// sameVerdict reports a disagreement on one table between monotoneTimes
// and timesError's two loops, or between a rejection's text and the one
// checkTimes gave before it had a one-pass loop: the empty check, then
// timesError.
func sameVerdict(t *testing.T, times []float64) {
	t.Helper()
	ref := fmt.Errorf("%w (task %q)", ErrEmpty, "x")
	if len(times) > 0 {
		ref = timesError("x", times)
		if monotoneTimes(times) != (ref == nil) {
			t.Fatalf("times %v: one pass accepts %v, two loops say %v", times, monotoneTimes(times), ref)
		}
	}
	if got := checkTimes("x", times); (got == nil) != (ref == nil) || got != nil && got.Error() != ref.Error() {
		t.Fatalf("times %v: checkTimes says %v, two loops %v", times, got, ref)
	}
}

// checkSpecials are the values no profile may hold, and the extremes one
// may: zeros of both signs, a negative, NaN, both infinities, the largest
// finite and the smallest subnormal.
var checkSpecials = []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324}

// ulps returns v and its neighbours one ulp either side.
func ulps(v float64) []float64 {
	return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
}

// stepCandidates are the values t(p+1) worth trying after t(p) = prev:
// the time bound t(p)·(1+Eps) and the work bound t(p+1) with
// (p+1)·t(p+1) = p·t(p)·(1−Eps), each ±1 ulp, a plateau, and the specials.
func stepCandidates(prev float64, p int) []float64 {
	c := append(ulps(prev*(1+Eps)), ulps(float64(p)*prev*(1-Eps)/float64(p+1))...)
	c = append(c, prev)
	return append(c, checkSpecials...)
}

// checkTimes decides in one loop what its two loops decided, and a
// rejection's text is unchanged: every table of a plateau of p times
// (p = 1..7, so the work bound's p·t(p) is and is not exact) and one or
// two more whose steps straddle both Eps boundaries by an ulp, or hold a
// special, over bases from the subnormal to MaxFloat64.
func TestCheckTimesOnePass(t *testing.T) {
	sameVerdict(t, nil)
	sameVerdict(t, []float64{})
	bases := append([]float64{1, 3.7, 0.1, 1e-300, 1e300, 2.5e-320}, checkSpecials...)
	tables, accepted := 0, 0
	check := func(times ...float64) {
		sameVerdict(t, times)
		tables++
		if checkTimes("x", times) == nil {
			accepted++
		}
	}
	for _, b := range bases {
		for p := 1; p <= 7; p++ {
			plateau := make([]float64, p, p+2)
			for k := range plateau {
				plateau[k] = b
			}
			check(plateau...)
			for _, x := range stepCandidates(b, p) {
				check(append(plateau, x)...)
				for _, y := range stepCandidates(x, p+1) {
					check(append(plateau, x, y)...)
					check(append([]float64{y}, append(plateau, x)...)...)
				}
			}
		}
	}
	// Both verdicts must be reached, or the sweep proves nothing.
	if accepted == 0 || accepted == tables {
		t.Fatalf("%d of %d tables accepted", accepted, tables)
	}
	t.Logf("%d tables, %d accepted", tables, accepted)
}

// FuzzCheckTimesOnePass holds checkTimes to the two-loop reference on
// tables grown from first one step per byte: the step's low three bits
// pick the time bound, the work bound (each exact or one ulp off), a
// plateau or a special, and its high bits which special. Committed seeds
// live in testdata/fuzz/FuzzCheckTimesOnePass.
func FuzzCheckTimesOnePass(f *testing.F) {
	f.Add(1.0, []byte{0, 3, 6, 1})
	f.Add(3.7, []byte{2, 5, 4, 7})
	f.Fuzz(func(t *testing.T, first float64, steps []byte) {
		if len(steps) > 64 {
			return
		}
		times := []float64{first}
		for _, s := range steps {
			p := len(times)
			prev := times[p-1]
			var v float64
			switch s % 8 {
			case 0, 1, 2:
				v = ulps(prev * (1 + Eps))[s%8]
			case 3, 4, 5:
				v = ulps(float64(p) * prev * (1 - Eps) / float64(p+1))[s%8-3]
			case 6:
				v = prev
			case 7:
				v = checkSpecials[int(s>>3)%len(checkSpecials)]
			}
			times = append(times, v)
		}
		sameVerdict(t, times)
	})
}
