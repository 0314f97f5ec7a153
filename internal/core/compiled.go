package core

import (
	"malsched/internal/instance"
	"malsched/internal/task"
)

// segState is a Scratch's λ-range index of canonical allotments (see
// instance.Segments for what it keeps and why that is sound); segEntry is
// one allotment's entry.
type segState = instance.Segments[segTables]
type segEntry = instance.Segment[segTables]

// segTables is core's payload: the by-decreasing-time order and prefix
// area, filled lazily (rejected probes never need them), and whether the
// canonical pair tagged clistOf and the malleable list tagged mlistOf were
// built from the entry — one flag per draft, since the probe deadline and
// the relaxed one can land on the same entry.
type segTables struct {
	sorted  bool // order and area are filled
	order   []int
	area    float64
	clisted bool
	mlisted bool
}

// filled returns λ's entry in st, its payload reset when the index hands it
// out fresh. A lookup at the cap recycles every entry, so a caller holding
// an entry across n lookups, its own included, calls st.Reserve(n) before
// the first: dualStep holds the probe's entry across malleableList's.
func filled(st *segState, c *instance.Compiled, lambda float64) *segEntry {
	e, fresh := st.Lookup(c, 0, lambda)
	if fresh {
		e.Val.sorted, e.Val.clisted, e.Val.mlisted = false, false, false
	}
	return e
}

// allotmentOf materialises an entry as an Allotment for this deadline; Gamma
// aliases the entry (nil for the verdict) and lives until it is recycled.
func allotmentOf(e *segEntry, lambda float64) Allotment {
	return Allotment{Lambda: lambda, Gamma: e.Gamma, OK: e.OK, Slowest: e.Slowest}
}

// sortedOrder returns the by-decreasing-time order of the entry's
// allotment a and leaves its Definition-1 prefix area in t.area, computing
// both on the allotment's first surviving probe only; keys is the sort's
// scratch.
func (t *segTables) sortedOrder(c *instance.Compiled, a Allotment, keys *[]float64) []int {
	if !t.sorted {
		t.order = sortByDecreasingTime(c, a, &t.order, keys)
		t.area = prefixAreaFrom(c, a, t.order)
		t.sorted = true
	}
	return t.order
}

// sortByDecreasingTime fills *buf with the task indices sorted by
// non-increasing canonical execution time t_i(γ_i) (stable), staging the
// times in *keys.
func sortByDecreasingTime(c *instance.Compiled, a Allotment, buf *[]int, keys *[]float64) []int {
	order := intsBuf(buf, len(a.Gamma))
	t := floatsBuf(keys, len(a.Gamma))
	for i, g := range a.Gamma {
		order[i] = i
		t[i] = c.Time(i, g)
	}
	task.SortDescending(order, t)
	return order
}

// prefixAreaFrom computes the Definition-1 prefix area W from an already
// sorted order; see Allotment.PrefixArea for the contract.
func prefixAreaFrom(c *instance.Compiled, a Allotment, order []int) float64 {
	var w float64
	cum := 0
	m := c.M()
	for _, i := range order {
		g := a.Gamma[i]
		t := c.Time(i, g)
		if cum+g < m {
			w += float64(g) * t
			cum += g
			continue
		}
		w += float64(m-cum) * t // clip the crossing task to m processors
		return w
	}
	return w // Σγ < m: the whole canonical area
}
