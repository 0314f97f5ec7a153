package instance

import (
	"math"
	"slices"
	"sort"
	"sync"

	"malsched/internal/task"
)

// Compiled is a compile-once, immutable, struct-of-arrays view of an
// instance, built for the dual-approximation hot path: the dichotomic
// search probes many deadline guesses λ on the same instance, and almost
// everything a probe derives — the canonical allotment γ(λ), the orders it
// is sorted into, the knapsack columns — is a piecewise-constant function
// of λ that only changes at finitely many breakpoints.
//
// Compile flattens every task profile into contiguous time and work
// columns (no per-task pointer chasing on the probe path) and computes the
// λ-breakpoint table: for every profile entry t_i(p) the exact float64
// threshold b with
//
//	task.Leq(t_i(p), λ)  ⇔  λ ≥ b   for all λ ≥ 0,
//
// so a canonical lookup γ_i(λ) = min{p : t_i(p) ≤ λ} becomes a binary
// search over plain float compares that returns bit-identically what
// task.Canonical returns — the threshold is exact by construction (found on
// the float lattice against the very predicate task.Leq evaluates), not an
// algebraic approximation. The per-task threshold rows double as the
// breakpoint lists: between two consecutive thresholds of a row the
// canonical allotment index is constant. Every γ_i(λ) is non-increasing in
// λ (see Gamma), so the allotment vectors met along the λ-axis are totally
// ordered and Σ_i γ_i(λ) names the vector exactly
// (TestAllotmentSumIdentifiesAllotment). Segments, the λ-range index both
// the dual search and the DAG solver keep their derived tables in — the
// by-decreasing-time order, the total canonical work, the prefix area, the
// critical path — keys on that sum, so Compile builds what a probe reads
// and nothing else.
//
// The merged, sorted, deduplicated union of all thresholds — the axis
// Segment indexes and GlobalBreakpoints returns — is an observability view:
// solve traces echo a probe's position on it. It is built from the
// threshold table on first use, which a search that is not traced never
// makes.
//
// A Compiled is immutable after Compile (the lazy axis is published under a
// sync.Once) and safe for concurrent use by any number of searches. The
// engine caches one per workload fingerprint and compiles on a memo miss
// only; the shards of one batch share it. It must not be copied.
type Compiled struct {
	in *Instance
	// off[i] is the first column of task i; off[n] is the total column
	// count. Task i's profile occupies columns off[i]..off[i+1]-1, column
	// off[i]+p-1 holding processor count p.
	off []int
	// seqOrder is the task order of non-increasing sequential time t(1)
	// (stable), precomputed because §3.1's malleable list construction
	// needs exactly this order at every λ. It shares one slab with off.
	seqOrder []int
	// times and works are the flattened profile matrices: t_i(p) and
	// p·t_i(p) in the layout above.
	times []float64
	works []float64
	// thr is the λ-breakpoint table: thr[off[i]+p-1] is the exact smallest
	// λ ≥ 0 with task.Leq(t_i(p), λ) (+Inf when no λ satisfies it, e.g. a
	// NaN time on an instance built around validation). times, works and
	// thr share one slab.
	thr []float64

	// axis is the merged breakpoint axis, built on first use under axisOnce.
	axisOnce sync.Once
	axis     []float64
}

// Compile builds the compiled view of an instance. It never panics, even on
// malformed instances built around validation (empty profiles compile to
// empty rows and report no canonical allotment): callers may compile before
// instance.Check has run.
func Compile(in *Instance) *Compiled {
	if in == nil {
		return nil
	}
	c := newTables(in)
	for i, t := range in.Tasks {
		c.fillRow(i, t)
	}
	c.sortSeqOrder()
	return c
}

// newTables lays out the tables of in's tasks, rows unfilled: the Compiled
// itself, one int slab (off | seqOrder) and one float slab (times | works |
// thr) — three allocations whatever the instance.
func newTables(in *Instance) *Compiled {
	n := len(in.Tasks)
	ints := make([]int, 2*n+1)
	c := &Compiled{in: in, off: ints[: n+1 : n+1], seqOrder: ints[n+1:]}
	total := 0
	for i, t := range in.Tasks {
		c.off[i] = total
		total += t.MaxProcs()
	}
	c.off[n] = total
	floats := make([]float64, 3*total)
	c.times = floats[:total:total]
	c.works = floats[total : 2*total : 2*total]
	c.thr = floats[2*total:]
	return c
}

// fillRow writes task i's times, works and thresholds. A run of equal
// consecutive times (a plateau of the profile) shares one threshold: the
// lattice walk is a function of the time value alone.
func (c *Compiled) fillRow(i int, t task.Task) {
	base := c.off[i]
	var prev, b float64
	for p := 1; p <= t.MaxProcs(); p++ {
		tv := t.Time(p)
		if p == 1 || tv != prev {
			prev, b = tv, leqThreshold(tv)
		}
		c.times[base+p-1] = tv
		c.works[base+p-1] = float64(p) * tv
		c.thr[base+p-1] = b
	}
}

// sortSeqOrder derives the sequential order from the filled time rows.
func (c *Compiled) sortSeqOrder() {
	for i := range c.seqOrder {
		c.seqOrder[i] = i
	}
	slices.SortStableFunc(c.seqOrder, func(a, b int) int {
		return task.Descending(c.seqTimeOrZero(a), c.seqTimeOrZero(b))
	})
}

// globalAxis returns the merged breakpoint axis — the sorted, deduplicated
// union of all thresholds — building it on first use. The once publishes
// the slice to every goroutine, so a Compiled shared by concurrent searches
// stays immutable as far as any of them can observe.
func (c *Compiled) globalAxis() []float64 {
	c.axisOnce.Do(func() {
		axis := make([]float64, len(c.thr))
		copy(axis, c.thr)
		sort.Float64s(axis)
		c.axis = slices.Compact(axis)
	})
	return c.axis
}

// seqTimeOrZero is t_i(1), or 0 for a (malformed) empty profile.
func (c *Compiled) seqTimeOrZero(i int) float64 {
	if c.off[i] == c.off[i+1] {
		return 0
	}
	return c.times[c.off[i]]
}

// Instance returns the instance the tables were compiled from. The tables
// themselves are name-independent (they hold only machine size and time
// values), so the engine's compiled cache may legitimately serve a Compiled
// whose Instance is a renamed copy of the caller's workload.
func (c *Compiled) Instance() *Instance { return c.in }

// M returns the machine size.
func (c *Compiled) M() int { return c.in.M }

// N returns the task count.
func (c *Compiled) N() int { return len(c.off) - 1 }

// MaxProcs returns the profile width of task i.
func (c *Compiled) MaxProcs(i int) int { return c.off[i+1] - c.off[i] }

// Time returns t_i(p) from the flattened matrix; p must be in 1..MaxProcs(i).
func (c *Compiled) Time(i, p int) float64 { return c.times[c.off[i]+p-1] }

// Work returns the precomputed w_i(p) = p·t_i(p).
func (c *Compiled) Work(i, p int) float64 { return c.works[c.off[i]+p-1] }

// SeqTime returns t_i(1).
func (c *Compiled) SeqTime(i int) float64 { return c.times[c.off[i]] }

// Gamma returns the canonical processor count γ_i(λ) = min{p : t_i(p) ≤ λ}
// and whether it exists, bit-identically to task.Canonical for every
// λ ≥ 0 — the threshold table makes the two predicates pointwise equal, and
// both sides resolve them with the same binary search. γ_i is non-increasing
// in λ whatever the row holds, sorted or not: a larger λ only turns
// predicate answers true, so its search follows the smaller one's path
// until the first differing answer and goes left there.
func (c *Compiled) Gamma(i int, lambda float64) (int, bool) {
	lo, hi := c.off[i], c.off[i+1]
	if lo == hi || !(lambda >= c.thr[hi-1]) {
		return 0, false
	}
	row := c.thr[lo:hi]
	p := sort.Search(len(row), func(j int) bool { return lambda >= row[j] })
	return p + 1, true
}

// Segment locates λ on the merged breakpoint axis: the number of
// breakpoints ≤ λ. Two deadlines with the same segment index have identical
// canonical allotments γ_i for every task (the predicate λ ≥ b agrees on
// every breakpoint b). Solve traces echo the index; no solver reads it, so
// only a traced solve builds the axis.
func (c *Compiled) Segment(lambda float64) int {
	axis := c.globalAxis()
	return sort.Search(len(axis), func(j int) bool { return axis[j] > lambda })
}

// Breakpoints returns task i's λ-threshold row: entry p-1 is the exact
// smallest λ with task.Leq(t_i(p), λ), so on [row[p-1], row[p-2]) the
// canonical allotment is p (rows are non-increasing for monotone profiles).
// The returned slice aliases the compiled table; callers must not modify it.
func (c *Compiled) Breakpoints(i int) []float64 { return c.thr[c.off[i]:c.off[i+1]] }

// GlobalBreakpoints returns the merged breakpoint array (sorted, distinct),
// building it on first use like Segment. The returned slice aliases the
// compiled table; callers must not modify it.
func (c *Compiled) GlobalBreakpoints() []float64 { return c.globalAxis() }

// SeqOrder returns the precompiled stable order of non-increasing
// sequential time. The returned slice aliases the compiled table; callers
// must not modify it.
func (c *Compiled) SeqOrder() []int { return c.seqOrder }

// leqThreshold returns the exact smallest λ ≥ 0 with task.Leq(t, λ): the
// float-evaluated predicate is monotone in λ (every operation in Leq is
// monotone), so the boundary is a single float64, located on the float
// lattice against the predicate itself. An algebraic estimate lands within
// a few ulps and a short walk pins it; pathological inputs fall back to a
// full bisection over the float bits (monotone for non-negative floats).
func leqThreshold(t float64) float64 {
	if math.IsNaN(t) {
		return math.Inf(1) // Leq(NaN, λ) is false for every λ
	}
	if task.Leq(t, 0) {
		return 0
	}
	if math.IsInf(t, 1) {
		return math.Inf(1) // no finite λ satisfies Leq(+Inf, λ)
	}
	// Here t > 0 and finite; Leq(t, t) always holds, so t brackets from
	// above. Estimate the real-arithmetic boundary of
	// t ≤ λ + Eps·(t+λ+1) and walk to the float-exact one.
	est := (t*(1-task.Eps) - task.Eps) / (1 + task.Eps)
	if !(est > 0) {
		est = 0
	}
	if est > t {
		est = t
	}
	const maxWalk = 128
	if task.Leq(t, est) {
		for i := 0; i < maxWalk; i++ {
			prev := math.Nextafter(est, math.Inf(-1))
			if prev < 0 || !task.Leq(t, prev) {
				return est
			}
			est = prev
		}
	} else {
		for i := 0; i < maxWalk; i++ {
			est = math.Nextafter(est, math.Inf(1))
			if task.Leq(t, est) {
				return est
			}
		}
	}
	// Fallback: bisection over the float bit lattice of [0, t]. For
	// non-negative floats the IEEE-754 bit pattern orders like the value,
	// so this is a plain monotone binary search with ~62 probes.
	lb, hb := math.Float64bits(0), math.Float64bits(t)
	for lb+1 < hb {
		mid := (lb + hb) / 2
		if task.Leq(t, math.Float64frombits(mid)) {
			hb = mid
		} else {
			lb = mid
		}
	}
	return math.Float64frombits(hb)
}
