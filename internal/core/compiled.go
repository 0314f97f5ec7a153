package core

import (
	"slices"
	"sort"

	"malsched/internal/instance"
	"malsched/internal/task"
)

// segCacheCap bounds the per-Scratch segment cache across all compiled
// instances it has seen. A search probes a handful of distinct allotments;
// repeated searches replay the same set, so the steady state is all-hit
// well under the cap even when a worker alternates between several
// workloads. On overflow the cache is cleared wholesale — simple, bounds
// memory (and how long evicted Compiled tables stay referenced), and the
// next search refills its share from the recycled entries.
const segCacheCap = 512

// segState caches, per compiled instance, the tables a probe derives from
// the canonical allotment γ(λ): the vector itself with its total canonical
// work and, filled lazily because rejected probes never need them, the
// by-decreasing-time order and the prefix area. All of it is a function of
// the compiled tables and γ alone.
//
// The key is the allotment, named by Σ_i γ_i. Every γ_i is non-increasing
// in λ (instance.Compiled.Gamma), so the vectors met along the λ-axis are
// totally ordered componentwise and two of them with equal sums are equal:
// no hash, no collision, no assumption about the threshold rows. The
// entries of one instance are kept in ascending deadline order — strictly
// descending sum — each with the closed range [lo, hi] of deadlines seen to
// produce it. A deadline inside a range is a hit with no Gamma call at all:
// it sits between two deadlines with equal γ, and monotonicity sandwiches
// its own. Otherwise γ is staged once; a sum equal to the neighbour's below
// or above widens that entry's range, anything else becomes a new entry
// between them. A deadline some task cannot meet is answered from the
// uncached verdict entry: the scan that finds the task is the whole cost.
// So a probe landing on any previously-seen allotment — the bisection
// endgame, and every probe of a memo-warm re-search on a shared Scratch —
// pays zero recompute and zero allocation.
//
// Cold traffic visits every allotment once, so evicted entries (with their
// gamma/order arrays) and emptied range lists are recycled, not abandoned.
// That is sound only because a probe holds at most one live entry per
// segState — dualStep the seg one, malleableList the mseg one, each
// fetched once — and both recycle points run before an entry is handed
// out: drop between probes (DropCompiled), the wholesale clear at the top
// of filled. An entry handed out is therefore never one somebody still
// reads. The Scratch's list-draft tags (clistOf, mlistOf) outlive a probe
// and compare entry pointers; a recycled entry is the same pointer under
// another allotment, so a tag counts only while the entry's listed flag
// stands, and drop — which both recycle points go through — resets it.
type segState struct {
	caches map[*instance.Compiled][]*segEntry
	total  int

	freeEntries []*segEntry
	freeLists   [][]*segEntry

	stage   []int    // γ of a deadline outside every observed range
	verdict segEntry // the uncached answer for a deadline some task cannot meet
	staged  int      // lookups that had to stage γ; tests count Gamma scans with it
}

// segEntry holds one allotment's cached tables.
type segEntry struct {
	lo, hi float64 // deadlines observed to produce gamma, and so everything between
	sum    int     // Σ gamma, the key

	ok      bool // allotment exists (every task meets the deadline)
	slowest int
	gamma   []int
	work    float64

	haveOrder bool
	order     []int

	haveArea bool
	area     float64

	listed bool // the Scratch's list drafts were built from this allotment (see Scratch.clistOf)
}

// segListCap is the capacity a new range list starts with: more distinct
// allotments than a search and its relaxed-deadline twin visit, so a list
// is one allocation for its life.
const segListCap = 16

// drop evicts c's entries into the free lists: the lazy-table flags are
// reset (every other field is rewritten when the entry is handed out
// again), the gamma/order arrays and the emptied range list are kept for
// reuse.
func (st *segState) drop(c *instance.Compiled) {
	list, ok := st.caches[c]
	if !ok {
		return
	}
	for _, e := range list {
		e.haveOrder, e.haveArea, e.listed = false, false, false
		st.freeEntries = append(st.freeEntries, e)
	}
	st.total -= len(list)
	clear(list)
	st.freeLists = append(st.freeLists, list[:0])
	delete(st.caches, c)
}

// filled returns the cache entry of λ's canonical allotment with the
// vector and its total work resolved — the first thing every construction
// and the warm synthesis need of a deadline.
func (st *segState) filled(c *instance.Compiled, lambda float64) *segEntry {
	if st.total > segCacheCap {
		for old := range st.caches {
			st.drop(old)
		}
	}
	list := st.caches[c]
	// The first range not wholly below λ is the only one that can hold it.
	k := sort.Search(len(list), func(j int) bool { return list[j].hi >= lambda })
	if k < len(list) && list[k].lo <= lambda {
		return list[k]
	}

	st.staged++
	var below, above []int
	if k > 0 && k < len(list) {
		below, above = list[k-1].gamma, list[k].gamma
	}
	sum, slowest := stageGamma(c, lambda, &st.stage, below, above)
	if slowest >= 0 {
		st.verdict.slowest = slowest
		return &st.verdict
	}
	if k > 0 && list[k-1].sum == sum {
		list[k-1].hi = lambda
		return list[k-1]
	}
	if k < len(list) && list[k].sum == sum {
		list[k].lo = lambda
		return list[k]
	}

	var e *segEntry
	if f := len(st.freeEntries); f > 0 {
		e, st.freeEntries = st.freeEntries[f-1], st.freeEntries[:f-1]
	} else {
		e = &segEntry{}
	}
	e.lo, e.hi, e.sum, e.ok, e.slowest = lambda, lambda, sum, true, -1
	copy(intsBuf(&e.gamma, len(st.stage)), st.stage)
	e.work = 0
	for i, g := range e.gamma { // in task order, as every sum of works is taken
		e.work += c.Work(i, g)
	}
	if list == nil {
		if st.caches == nil {
			st.caches = make(map[*instance.Compiled][]*segEntry)
		}
		if f := len(st.freeLists); f > 0 {
			list, st.freeLists = st.freeLists[f-1], st.freeLists[:f-1]
		} else {
			list = make([]*segEntry, 0, segListCap)
		}
	}
	st.caches[c] = slices.Insert(list, k, e)
	st.total++
	return e
}

// stageGamma computes the canonical allotment vector of a deadline into
// *buf and returns Σγ; it bails at the first task that cannot meet the
// deadline and names it in slowest (−1 when the allotment exists). below
// and above, when non-nil, are the vectors of a smaller and a larger
// deadline: γ_i is non-increasing in λ, so only tasks they differ on scan.
func stageGamma(c *instance.Compiled, lambda float64, buf *[]int, below, above []int) (sum, slowest int) {
	gamma := intsBuf(buf, c.N())
	for i := range gamma {
		if below != nil && below[i] == above[i] {
			gamma[i] = below[i]
		} else if g, ok := c.Gamma(i, lambda); ok {
			gamma[i] = g
		} else {
			return 0, i
		}
		sum += gamma[i]
	}
	return sum, -1
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
// allotment a, sorting on the allotment's first surviving probe only.
func (e *segEntry) sortedOrder(c *instance.Compiled, a Allotment) []int {
	if !e.haveOrder {
		e.order = sortByDecreasingTime(c, a, &e.order)
		e.haveOrder = true
	}
	return e.order
}

// prefixArea returns the Definition-1 prefix area of the entry's allotment a
// in its sorted order, computed on the allotment's first surviving probe
// only.
func (e *segEntry) prefixArea(c *instance.Compiled, a Allotment, order []int) float64 {
	if !e.haveArea {
		e.area = prefixAreaFrom(c, a, order)
		e.haveArea = true
	}
	return e.area
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
