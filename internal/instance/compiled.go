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
// columns (no per-task pointer chasing on the probe path) and records the
// largest time. That is all it reads of each entry: a canonical lookup
// γ_i(λ) = min{p : t_i(p) ≤ λ} resolves the deadline once, to the exact
// largest float64 τ(λ) with task.Leq(τ(λ), λ) (see Bound), and then
// compares time rows against τ with plain float compares. Where no
// addition inside task.Leq can overflow (times and λ up to boundLimit),
//
//	task.Leq(t, λ)  ⇔  t ≤ τ(λ)   for every such time t,
//
// so the binary search returns bit-identically what task.Canonical
// returns — τ is exact by construction (found on the float lattice against
// the very predicate task.Leq evaluates), not an algebraic approximation.
// Outside that domain — a time or deadline near MaxFloat64, or +Inf, on a
// table built around validation — every compare is task.Leq itself.
// Every γ_i(λ) is non-increasing in λ (see Gamma), so the allotment
// vectors met along the λ-axis are totally ordered and Σ_i γ_i(λ) names
// the vector exactly (TestAllotmentSumIdentifiesAllotment). Segments, the
// λ-range index both the dual search and the DAG solver keep their derived
// tables in — the by-decreasing-time order, the total canonical work, the
// prefix area, the critical path — keys on that sum, so Compile builds
// what a probe reads and nothing else.
//
// The breakpoints of the λ-axis are the per-entry thresholds: for every
// time t the exact smallest λ ≥ 0 with task.Leq(t, λ). Their merged,
// sorted, deduplicated union — the axis Segment indexes and
// GlobalBreakpoints returns — is an observability view: solve traces echo
// a probe's position on it. It is built on first use, which a search that
// is not traced never makes.
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
	// p·t_i(p) in the layout above, sharing one slab.
	times []float64
	works []float64
	// maxTime is the largest time of the table (0 when none is positive;
	// NaN entries are skipped). Bound compares it against boundLimit.
	maxTime float64

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
	c.seal()
	return c
}

// newTables lays out the tables of in's tasks, rows unfilled: the Compiled
// itself, one int slab (off | seqOrder) and one float slab (times | works)
// — three allocations whatever the instance.
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
	floats := make([]float64, 2*total)
	c.times = floats[:total:total]
	c.works = floats[total:]
	return c
}

// fillRow writes task i's times and works.
func (c *Compiled) fillRow(i int, t task.Task) {
	times := c.times[c.off[i]:c.off[i+1]]
	works := c.works[c.off[i]:c.off[i+1]]
	for p := range times {
		tv := t.Time(p + 1)
		times[p] = tv
		works[p] = float64(p+1) * tv
	}
}

// seal derives what the filled time rows determine: the largest time and
// the sequential order. The sort keys live on the stack up to sealKeys
// tasks, so Compile's three allocations stay three there.
func (c *Compiled) seal() {
	for _, t := range c.times {
		if t > c.maxTime {
			c.maxTime = t
		}
	}
	var stack [sealKeys]float64
	keys := stack[:0]
	if n := len(c.seqOrder); n > sealKeys {
		keys = make([]float64, 0, n)
	}
	for i := range c.seqOrder {
		c.seqOrder[i] = i
		keys = append(keys, c.seqTimeOrZero(i))
	}
	task.SortDescending(c.seqOrder, keys)
}

// sealKeys is how many sequential times seal sorts on its stack.
const sealKeys = 64

// globalAxis returns the merged breakpoint axis — the sorted, deduplicated
// union of every entry's threshold — building it on first use. A run of
// equal consecutive times (a plateau of a profile) shares one threshold.
// The once publishes the slice to every goroutine, so a Compiled shared by
// concurrent searches stays immutable as far as any of them can observe.
func (c *Compiled) globalAxis() []float64 {
	c.axisOnce.Do(func() {
		axis := make([]float64, 0, len(c.times))
		for i := 0; i < c.N(); i++ {
			row := c.times[c.off[i]:c.off[i+1]]
			for p, t := range row {
				if p == 0 || t != row[p-1] {
					axis = append(axis, leqThreshold(t))
				}
			}
		}
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

// Rows returns the time table as its two slabs: row i — task i's times on
// 1..MaxProcs(i) processors — is times[off[i]:off[i+1]]. Both are the
// Compiled's own and must not be modified. The engine's caches compare a
// workload against them word for word before they answer from an entry.
func (c *Compiled) Rows() (off []int, times []float64) { return c.off, c.times }

// SeqTime returns t_i(1).
func (c *Compiled) SeqTime(i int) float64 { return c.times[c.off[i]] }

// boundLimit is the edge of the domain where a deadline resolves to τ: for
// times and deadlines in [0, boundLimit] no addition inside task.Leq
// overflows, nor does the walk that finds τ. A negative time never
// matters — task.Leq holds for it at every λ ≥ 0, and so does t ≤ τ.
const boundLimit = math.MaxFloat64 / 4

// Bound is a deadline λ resolved for the γ lookups of one Compiled. When
// the table's largest time and λ lie in [0, boundLimit], it holds τ(λ),
// the exact largest float64 with task.Leq(τ(λ), λ), and a time row is
// compared against λ by t ≤ τ(λ): there task.Leq(t, λ) only turns false as
// t grows, so the two predicates agree on every time up to boundLimit, NaN
// and negative ones included (TestBoundMatchesLeq, FuzzBoundMatchesLeq).
// Otherwise it holds λ alone and every compare is task.Leq. τ is
// non-decreasing in λ (TestBoundMonotone).
type Bound struct {
	lambda, tau float64
	exact       bool
}

// Bound resolves λ once for any number of GammaAt lookups.
func (c *Compiled) Bound(lambda float64) Bound {
	if c.maxTime <= boundLimit && lambda >= 0 && lambda <= boundLimit {
		if tau, ok := leqBound(lambda); ok {
			return Bound{lambda: lambda, tau: tau, exact: true}
		}
	}
	return Bound{lambda: lambda}
}

// Gamma returns the canonical processor count γ_i(λ) = min{p : t_i(p) ≤ λ}
// and whether it exists, bit-identically to task.Canonical for every λ.
// It resolves λ on every call; a caller looking up many tasks at
// one deadline resolves it once with Bound and calls GammaAt.
func (c *Compiled) Gamma(i int, lambda float64) (int, bool) {
	return c.GammaAt(i, c.Bound(lambda))
}

// GammaAt is Gamma at a resolved deadline. Both predicates, t ≤ τ and the
// task.Leq fallback, equal task.Canonical's pointwise, and the search below
// is sort.Search's own loop, so every row — sorted or not — gets
// task.Canonical's answer. γ_i is non-increasing in λ whatever the row
// holds: a larger λ only turns predicate answers true, so its search
// follows the smaller one's path until the first differing answer and goes
// left there.
func (c *Compiled) GammaAt(i int, b Bound) (int, bool) {
	row := c.times[c.off[i]:c.off[i+1]]
	if !b.exact {
		return canonicalLeq(row, b.lambda)
	}
	if len(row) == 0 || !(row[len(row)-1] <= b.tau) {
		return 0, false
	}
	lo, hi := 0, len(row)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if !(row[h] <= b.tau) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo + 1, true
}

// canonicalLeq is task.Canonical over a time row: γ through task.Leq.
func canonicalLeq(row []float64, lambda float64) (int, bool) {
	if len(row) == 0 || !task.Leq(row[len(row)-1], lambda) {
		return 0, false
	}
	p := sort.Search(len(row), func(j int) bool { return task.Leq(row[j], lambda) })
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

// GlobalBreakpoints returns the merged breakpoint array (sorted, distinct),
// building it on first use like Segment. The returned slice aliases the
// compiled table; callers must not modify it.
func (c *Compiled) GlobalBreakpoints() []float64 { return c.globalAxis() }

// SeqOrder returns the precompiled stable order of non-increasing
// sequential time. The returned slice aliases the compiled table; callers
// must not modify it.
func (c *Compiled) SeqOrder() []int { return c.seqOrder }

// maxWalk bounds the lattice walks of leqBound and leqThreshold: the
// closed-form estimates land within a few ulps of the float-exact boundary.
const maxWalk = 128

// leqBound returns τ(λ), the largest float64 t with task.Leq(t, λ), for
// 0 ≤ λ ≤ boundLimit, and false when the walk from the estimate does not
// reach it (the caller then falls back to task.Leq). The real-arithmetic
// boundary of t ≤ λ + Eps·(t+λ+1) is (λ(1+Eps)+Eps)/(1−Eps); the walk pins
// the float-exact one against the predicate itself.
func leqBound(lambda float64) (float64, bool) {
	est := (lambda*(1+task.Eps) + task.Eps) / (1 - task.Eps)
	if task.Leq(est, lambda) {
		for range maxWalk {
			next := math.Nextafter(est, math.Inf(1))
			if !task.Leq(next, lambda) {
				return est, true
			}
			est = next
		}
	} else {
		for range maxWalk {
			est = math.Nextafter(est, math.Inf(-1))
			if task.Leq(est, lambda) {
				return est, true
			}
		}
	}
	return 0, false
}

// leqThreshold returns the exact smallest λ ≥ 0 with task.Leq(t, λ) — the
// breakpoint entry t contributes to the axis: the float-evaluated
// predicate is monotone in λ (every operation in Leq is monotone), so the
// boundary is a single float64, located on the float lattice against the
// predicate itself. An algebraic estimate lands within a few ulps and a
// short walk pins it; pathological inputs fall back to a full bisection
// over the float bits (monotone for non-negative floats).
func leqThreshold(t float64) float64 {
	if math.IsNaN(t) {
		return math.Inf(1) // Leq(NaN, λ) is false for every λ
	}
	if task.Leq(t, 0) { // a negative or tiny t, and ±Inf: Eps·(+Inf) = +Inf
		return 0
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
	if task.Leq(t, est) {
		for range maxWalk {
			prev := math.Nextafter(est, math.Inf(-1))
			if prev < 0 || !task.Leq(t, prev) {
				return est
			}
			est = prev
		}
	} else {
		for range maxWalk {
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
