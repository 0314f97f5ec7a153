package core

import (
	"slices"

	"malsched/internal/instance"
	"malsched/internal/task"
)

// segCacheCap bounds the per-Scratch segment cache across all compiled
// instances it has seen. A search probes a few dozen distinct segments;
// repeated searches replay the same set, so the steady state is all-hit
// well under the cap even when a worker alternates between several
// workloads. On overflow the cache is cleared wholesale — simple, bounds
// memory (and how long evicted Compiled tables stay referenced), and the
// next search refills its share from the recycled entries.
const segCacheCap = 512

// segState caches, per (compiled instance, λ-segment), the tables a probe
// derives that are constant on the segment: the canonical allotment
// vector (with its existence verdict and total canonical work) and, filled
// lazily because rejected probes never need them, the by-decreasing-time
// order and the prefix area. The compiled breakpoint axis guarantees every
// deadline in one segment derives the exact same tables, so a probe
// landing in any previously-probed segment — the bisection endgame, and
// every probe of a memo-warm re-search on a shared Scratch — pays zero
// recompute and zero allocation.
//
// Cold traffic visits every segment once, so evicted entries (with their
// gamma/order arrays) and emptied inner maps are recycled, not abandoned.
// That is sound only because a probe holds at most one live entry per
// segState — dualStep the seg one, malleableList the mseg one, each
// fetched once — and both recycle points run before an entry is handed
// out: drop between probes (DropCompiled), the wholesale clear at the top
// of entry. An entry handed out is therefore never one somebody still
// reads.
type segState struct {
	caches map[*instance.Compiled]map[int]*segEntry
	total  int

	freeEntries []*segEntry
	freeMaps    []map[int]*segEntry
}

// segEntry holds one segment's cached tables.
type segEntry struct {
	haveGamma bool
	ok        bool // allotment exists (every task meets the deadline)
	slowest   int
	gamma     []int
	work      float64

	haveOrder bool
	order     []int

	haveArea bool
	area     float64
}

// entry returns the cache entry for (c, seg), creating it on first use and
// clearing the whole cache when the entry cap is hit.
func (st *segState) entry(c *instance.Compiled, seg int) *segEntry {
	if st.caches == nil {
		st.caches = make(map[*instance.Compiled]map[int]*segEntry)
	}
	if st.total > segCacheCap {
		for old := range st.caches {
			st.drop(old)
		}
	}
	m := st.caches[c]
	if m == nil {
		if k := len(st.freeMaps); k > 0 {
			m, st.freeMaps = st.freeMaps[k-1], st.freeMaps[:k-1]
		} else {
			m = make(map[int]*segEntry)
		}
		st.caches[c] = m
	}
	e := m[seg]
	if e == nil {
		if k := len(st.freeEntries); k > 0 {
			e, st.freeEntries = st.freeEntries[k-1], st.freeEntries[:k-1]
		} else {
			e = &segEntry{}
		}
		m[seg] = e
		st.total++
	}
	return e
}

// drop evicts c's entries into the free lists: the have* flags are reset
// (every other field is rewritten by the fill that sets its flag), the
// gamma/order arrays and the emptied inner map are kept for reuse.
func (st *segState) drop(c *instance.Compiled) {
	m, ok := st.caches[c]
	if !ok {
		return
	}
	for _, e := range m {
		e.haveGamma, e.haveOrder, e.haveArea = false, false, false
		st.freeEntries = append(st.freeEntries, e)
	}
	st.total -= len(m)
	clear(m)
	st.freeMaps = append(st.freeMaps, m)
	delete(st.caches, c)
}

// filled returns the cache entry of λ's segment with the canonical
// allotment and its total work resolved — the first thing every
// construction and the warm synthesis need of a deadline.
func (st *segState) filled(c *instance.Compiled, lambda float64) *segEntry {
	e := st.entry(c, c.Segment(lambda))
	if !e.haveGamma {
		e.fillGamma(c, lambda)
	}
	return e
}

// fillGamma computes the canonical allotment vector and total canonical
// work for a deadline in the entry's segment: bail at the first task that
// cannot meet the deadline (Slowest names it), sum the works in task order.
func (e *segEntry) fillGamma(c *instance.Compiled, lambda float64) {
	e.haveGamma = true
	n := c.N()
	e.gamma = intsBuf(&e.gamma, n)
	e.ok = true
	e.slowest = -1
	for i := 0; i < n; i++ {
		g, ok := c.Gamma(i, lambda)
		if !ok {
			e.ok = false
			e.slowest = i
			return
		}
		e.gamma[i] = g
	}
	var w float64
	for i := 0; i < n; i++ {
		w += c.Work(i, e.gamma[i])
	}
	e.work = w
}

// allotment materialises the cached vector as an Allotment for this
// deadline. Gamma aliases the cache entry and is valid until the entry is
// recycled (DropCompiled of its tables, or the entry cap hit).
func (e *segEntry) allotment(lambda float64) Allotment {
	if !e.ok {
		return Allotment{Lambda: lambda, OK: false, Slowest: e.slowest}
	}
	return Allotment{Lambda: lambda, Gamma: e.gamma, OK: true, Slowest: -1}
}

// sortedOrder returns the by-decreasing-time order of the entry's
// allotment a, sorting on the segment's first surviving probe only.
func (e *segEntry) sortedOrder(c *instance.Compiled, a Allotment) []int {
	if !e.haveOrder {
		e.order = sortByDecreasingTime(c, a, &e.order)
		e.haveOrder = true
	}
	return e.order
}

// sortByDecreasingTime fills *buf with the task indices sorted by
// non-increasing canonical execution time t_i(γ_i) (stable).
func sortByDecreasingTime(c *instance.Compiled, a Allotment, buf *[]int) []int {
	order := intsBuf(buf, len(a.Gamma))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return task.Descending(c.Time(x, a.Gamma[x]), c.Time(y, a.Gamma[y]))
	})
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
