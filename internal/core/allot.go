package core

import (
	"malsched/internal/instance"
)

// Allotment holds the canonical numbers γ_i(λ) of an instance for a
// deadline λ (§2.1 of the paper).
type Allotment struct {
	Lambda float64
	// Gamma[i] = γ_i(λ), the minimal processor count running task i within
	// λ. Valid only when OK.
	Gamma []int
	// OK is false when some task cannot meet λ even on all m processors;
	// Slowest then names the first such task index.
	OK      bool
	Slowest int
}

// CanonicalAllotment computes γ_i(λ) for every task (compiling the
// instance on entry); the returned Gamma is owned by the caller.
func CanonicalAllotment(in *instance.Instance, lambda float64) Allotment {
	var st segState
	e, _ := st.Lookup(instance.Compile(in), 0, lambda)
	return allotmentOf(e, lambda)
}

// PrefixArea computes W, the canonical prefix area of Definition 1: with
// tasks in non-increasing t_i(γ_i) order, the (fractional) area of the
// minimal prefix whose canonical processor counts reach m — equivalently,
// the area the first m processors compute when the canonical allotment runs
// on an unbounded machine. The branch threshold compares W against θ·m·λ.
func (a Allotment) PrefixArea(in *instance.Instance) float64 {
	c := instance.Compile(in)
	var order []int
	var keys []float64
	return prefixAreaFrom(c, a, sortByDecreasingTime(c, a, &order, &keys))
}
