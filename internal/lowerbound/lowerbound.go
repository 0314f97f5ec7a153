// Package lowerbound computes certified makespan lower bounds for malleable
// instances. Every bound is valid against the strongest adversary the paper
// measures against (§2): an optimal schedule that may be preemptive and
// non-contiguous. The bounds are what the experiment harness divides by to
// report approximation ratios, so their validity is what makes every
// reported ratio a true upper bound on the real ratio.
package lowerbound

import (
	"math"

	"malsched/internal/instance"
)

// Area returns Σ_i w_i(1) / m: total work is minimised by sequential
// execution (monotony), and any schedule provides at most m·makespan work.
func Area(in *instance.Instance) float64 {
	return in.MinTotalWork() / float64(in.M)
}

// Critical returns max_i t_i(min(m, maxprocs)): no task can finish faster
// than on the whole machine.
func Critical(in *instance.Instance) float64 {
	return in.MaxMinTime()
}

// Trivial returns max(Area, Critical).
func Trivial(in *instance.Instance) float64 {
	return math.Max(Area(in), Critical(in))
}

// canonicalWork returns Σ_i w_i(γ_i(λ)), or +Inf when some task cannot meet
// the deadline λ at all.
func canonicalWork(in *instance.Instance, lambda float64) float64 {
	var sum float64
	for _, t := range in.Tasks {
		g, ok := t.Canonical(lambda)
		if !ok {
			return math.Inf(1)
		}
		sum += t.Work(g)
	}
	return sum
}

// SquashedArea returns the strongest bound here, the squashed-area bound of
// Turek et al. in its dual form (the paper's Property 2): any schedule of
// length ≤ λ allots every task at least γ_i(λ) processors, hence performs at
// least Σ w_i(γ_i(λ)) work, which must fit in m·λ. The supremum of λ with
// Σ w_i(γ_i(λ)) > m·λ is therefore a lower bound on the optimum. The
// crossing is found by doubling plus 100 bisection steps; the returned value
// errs on the low (safe) side and is never below Trivial.
func SquashedArea(in *instance.Instance) float64 {
	lo := Trivial(in)
	excess := func(l float64) float64 { return canonicalWork(in, l) - float64(in.M)*l }
	if excess(lo) <= 0 {
		return lo
	}
	hi := lo
	for i := 0; i < 64 && excess(hi) > 0; i++ {
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if excess(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ContinuousPM returns the optimal makespan of the continuous relaxation of
// Prasanna–Musicus [14,15] for the power-law family t_i(p) = w_i / p^alpha
// on a continuously divisible machine of m processors: running all tasks
// simultaneously with shares p_i ∝ w_i^{1/alpha} finishes everything at
//
//	T = (Σ_i w_i^{1/alpha})^alpha / m^alpha ,
//
// which lower-bounds every discrete schedule of those profiles. Used by
// experiment E8.
func ContinuousPM(works []float64, alpha float64, m int) float64 {
	if alpha <= 0 || alpha > 1 {
		panic("lowerbound: ContinuousPM needs alpha in (0,1]")
	}
	var s float64
	for _, w := range works {
		s += math.Pow(w, 1/alpha)
	}
	return math.Pow(s, alpha) / math.Pow(float64(m), alpha)
}
