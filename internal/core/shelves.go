package core

import (
	"malsched/internal/instance"
	"malsched/internal/packing"
	"malsched/internal/schedule"
)

// Partition is the §4.1 split of the tasks by canonical execution time for
// a deadline λ and shelf parameter μ:
//
//	T1: t_i(γ_i) > μλ        — big tasks; candidates for either shelf
//	T2: λ/2 < t_i(γ_i) ≤ μλ  — middle tasks; always in the second shelf
//	TS: t_i(γ_i) ≤ λ/2       — small tasks; sequential by Property 1,
//	                           First-Fit packed into the second shelf
//
// plus the associated quantities q1 = Σ_{T1} γ − m, q2 = Σ_{T2} γ and the
// second-shelf First-Fit processor count LS for TS.
type Partition struct {
	T1, T2, TS []int
	// D[i] is d_i = γ_i(μλ) for i ∈ T1, indexed by task (0 when
	// unreachable: the task cannot run within the second shelf even on the
	// full machine; 0 for every task outside T1).
	D  []int
	Q1 int
	Q2 int
	// LS is FF(μλ, TS), the second-shelf processor count of the small
	// tasks; SPack holds that packing (bins over TS in slice order).
	LS    int
	SPack packing.Result
}

// NewPartition computes the partition for allotment a and parameter mu.
func NewPartition(in *instance.Instance, a Allotment, mu float64) (*Partition, error) {
	// A private Scratch, not a pooled one: the returned Partition aliases
	// its scratch and must stay valid for the caller indefinitely.
	return newPartition(instance.Compile(in), a, mu, NewScratch())
}

// newPartition computes the partition into sc's reused Partition value; the
// result is valid until the next probe on sc. t_i(γ_i) comes from the
// flattened time matrix and d_i = γ_i(μλ) from one resolved bound of μλ.
func newPartition(c *instance.Compiled, a Allotment, mu float64, sc *Scratch) (*Partition, error) {
	lambda := a.Lambda
	p := &sc.part
	p.T1, p.T2, p.TS = p.T1[:0], p.T2[:0], p.TS[:0]
	n := c.N()
	p.D = intsBuf(&p.D, n)
	p.Q1, p.Q2, p.LS = 0, 0, 0
	sizes := sc.sizes[:0]
	muBound := c.Bound(mu * lambda)
	for i := 0; i < n; i++ {
		g := a.Gamma[i]
		ct := c.Time(i, g)
		p.D[i] = 0
		switch {
		case ct > mu*lambda:
			p.T1 = append(p.T1, i)
			p.Q1 += g
			if d, ok := c.GammaAt(i, muBound); ok {
				p.D[i] = d
			}
		case ct > lambda/2 || g > 1:
			// Middle band; degenerate γ≥2 ties at t == λ/2 also land here
			// so that TS stays purely sequential.
			p.T2 = append(p.T2, i)
			p.Q2 += g
		default:
			p.TS = append(p.TS, i)
			sizes = append(sizes, ct)
		}
	}
	p.Q1 -= c.M()
	sc.sizes = sizes // keep the grown backing array for the next probe
	if err := p.SPack.FirstFit(sizes, mu*lambda); err != nil {
		return nil, err // unreachable: sizes ≤ λ/2 ≤ μλ for μ ≥ 1/2
	}
	p.LS = p.SPack.NumBins()
	return p, nil
}

// TwoShelfResult reports how the μ-schedule was obtained.
type TwoShelfResult struct {
	Schedule *schedule.Schedule
	// Method is "empty" (S = ∅ suffices), "trivial" (§4.5 single-task
	// solution), "knapsack-dp", "knapsack-fptas" or "knapsack-dual".
	Method string
	// Exact reports that failure proves no μ-schedule exists (the knapsack
	// search was exhaustive), which Lemmas 3–4 turn into a certificate.
	Exact bool
}

// TwoShelf builds the §4 two-shelf schedule for deadline guess lambda: a
// first shelf of length λ holding part of T1 at canonical allotments and a
// second shelf of length μλ stacked after it holding the moved subset S of
// T1 (at d_i processors), all of T2 (canonical) and TS (First-Fit). The
// subset S is found by the knapsack (KS): maximise Σ_S γ subject to
// Σ_S d ≤ m − q2 − LS, feasible iff the optimum reaches q1.
//
// It returns a nil Schedule when no feasible selection was found; Exact
// distinguishes a proof of non-existence from an approximation-scheme miss.
// Under Theorem 3's conditions (OPT ≤ λ, W ≥ θmλ) Lemmas 3–4 prove a
// μ-schedule or a trivial solution exists, so a nil result with Exact
// certifies OPT > λ.
func TwoShelf(in *instance.Instance, lambda float64, p Params) TwoShelfResult {
	return oneShot(in, func(c *instance.Compiled, sc *Scratch) TwoShelfResult {
		a := allotmentOf(filled(&sc.seg, c, lambda), lambda)
		if !a.OK {
			return TwoShelfResult{Exact: true}
		}
		r := twoShelfFromAllotment(c, a, p, sc)
		return TwoShelfResult{Schedule: r.schedule(), Method: r.method, Exact: r.exact}
	})
}

// shelfDraft is a TwoShelfResult whose schedule still lives in the Scratch.
type shelfDraft struct {
	draft
	method string
	exact  bool
}

func twoShelfFromAllotment(c *instance.Compiled, a Allotment, prm Params, sc *Scratch) shelfDraft {
	mu := prm.mu()
	part, err := newPartition(c, a, mu, sc)
	if err != nil {
		return shelfDraft{}
	}
	m := c.M()
	capacity := m - part.Q2 - part.LS

	// Trivial feasibility: nothing needs to move.
	if part.Q1 <= 0 && capacity >= 0 {
		return buildTwoShelf(c, a, part, nil, "empty", sc)
	}
	if capacity < 0 {
		// The second shelf overflows before any T1 task moves; no
		// μ-schedule exists (T2 and TS placements are forced).
		if r := trivialSolution(c, a, part, sc); r.built() {
			return r
		}
		return shelfDraft{exact: true}
	}

	// §4.5 trivial solutions: one big task moves and everything else fits
	// in the first shelf.
	if r := trivialSolution(c, a, part, sc); r.built() {
		return r
	}

	// Knapsack (KS) over the movable T1 tasks, as weight/profit columns
	// (weight d_i, profit γ_i, tag the task id) delta-synced against the
	// previous probe's columns in scratch — between consecutive probes of a
	// search, and across the residual re-solves of a warm replanning
	// lineage sharing this Scratch, the movable set barely moves, so
	// arrivals are appended, re-scaled entries patched in place and only a
	// diverged suffix is rebuilt. The synced slices equal a from-scratch
	// assembly element for element, so the Solver sees identical inputs in
	// identical order.
	cols := &sc.kcols
	cur := 0
	for _, i := range part.T1 {
		if d := part.D[i]; d > 0 && d <= capacity {
			cur = cols.Sync(cur, i, d, a.Gamma[i])
		}
	}
	cols.Truncate(cur)
	wcol, pcol, backing := cols.Weights(), cols.Profits(), cols.Tags()
	useDP := len(wcol)*(capacity+1) <= prm.MaxDPCells
	// sel lives in the Solver until its next call; a reached target Q1 > 0
	// makes it non-empty, so an empty method means no selection.
	var sel []int
	var method string
	exact := false
	if useDP {
		s, profit := sc.ks.MaxProfit(wcol, pcol, capacity)
		exact = true
		if profit >= part.Q1 {
			sel, method = s, "knapsack-dp"
		}
	} else {
		s, profit := sc.ks.MaxProfitFPTAS(wcol, pcol, capacity, prm.KnapsackEps)
		if profit >= part.Q1 {
			sel, method = s, "knapsack-fptas"
		} else if s2, w, ok := sc.ks.MinWeightApprox(wcol, pcol, part.Q1, capacity, prm.KnapsackEps); ok && w <= capacity {
			sel, method = s2, "knapsack-dual"
		}
	}
	if method == "" {
		return shelfDraft{exact: exact}
	}
	moved := intsBuf(&sc.moved, len(sel))
	for k, s := range sel {
		moved[k] = backing[s]
	}
	return buildTwoShelf(c, a, part, moved, method, sc)
}

// trivialSolution looks for the §4.5 escape: a single task τ ∈ T1 such that
// all other tasks fit into the first shelf at canonical allotments (with TS
// First-Fit packed under deadline λ) while τ alone runs in the second shelf
// on d_τ ≤ m processors.
func trivialSolution(c *instance.Compiled, a Allotment, part *Partition, sc *Scratch) shelfDraft {
	m := c.M()
	lambda := a.Lambda
	sizes := sc.tsizes[:0]
	for _, i := range part.TS {
		sizes = append(sizes, c.Time(i, a.Gamma[i]))
	}
	sc.tsizes = sizes
	sPack := &sc.tpack
	if err := sPack.FirstFit(sizes, lambda); err != nil {
		return shelfDraft{}
	}
	need := part.Q1 + part.Q2 + sPack.NumBins()
candidates:
	for _, i := range part.T1 {
		d := part.D[i]
		if d == 0 || d > m || a.Gamma[i] < need {
			continue
		}
		// Every candidate builds from an emptied buffer: one that fails
		// half-way must leave nothing behind for the next.
		r := shelfDraft{method: "trivial", draft: draft{algorithm: "two-shelf", placements: placementsBuf(&sc.shelf, c.N())}}
		x := 0
		for _, band := range [2][]int{part.T1, part.T2} {
			for _, j := range band {
				if j == i {
					continue
				}
				g := a.Gamma[j]
				if x+g > m {
					continue candidates
				}
				r.place(c, j, 0, g, x)
				x += g
			}
		}
		for k, j := range part.TS {
			bin := x + sPack.Bin[k]
			if bin >= m {
				continue candidates
			}
			r.place(c, j, sPack.Offset[k], 1, bin)
		}
		// τ alone in the second shelf, leftmost.
		r.place(c, i, lambda, d, 0)
		return r
	}
	return shelfDraft{}
}

// buildTwoShelf materialises the μ-schedule once the moved subset is known.
func buildTwoShelf(c *instance.Compiled, a Allotment, part *Partition, moved []int, method string, sc *Scratch) shelfDraft {
	m := c.M()
	lambda := a.Lambda
	r := shelfDraft{method: method, exact: true, draft: draft{algorithm: "two-shelf", placements: placementsBuf(&sc.shelf, c.N())}}
	if cap(sc.inMoved) < c.N() {
		sc.inMoved = make([]bool, c.N())
	}
	inMoved := sc.inMoved[:c.N()]
	clear(inMoved)
	for _, i := range moved {
		inMoved[i] = true
	}

	// First shelf: T1 ∖ S at canonical allotments, from the left.
	x := 0
	for _, i := range part.T1 {
		if inMoved[i] {
			continue
		}
		if x+a.Gamma[i] > m {
			return shelfDraft{} // defensive; Σ_{T1∖S} γ ≤ m by selection
		}
		r.place(c, i, 0, a.Gamma[i], x)
		x += a.Gamma[i]
	}

	// Second shelf at time λ: moved T1 at d, then T2 at γ, then TS bins.
	x = 0
	for _, i := range moved {
		d := part.D[i]
		if x+d > m {
			return shelfDraft{}
		}
		r.place(c, i, lambda, d, x)
		x += d
	}
	for _, i := range part.T2 {
		if x+a.Gamma[i] > m {
			return shelfDraft{}
		}
		r.place(c, i, lambda, a.Gamma[i], x)
		x += a.Gamma[i]
	}
	for k, i := range part.TS {
		bin := x + part.SPack.Bin[k]
		if bin >= m {
			return shelfDraft{}
		}
		r.place(c, i, lambda+part.SPack.Offset[k], 1, bin)
	}
	return r
}
