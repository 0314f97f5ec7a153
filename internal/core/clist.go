package core

import (
	"malsched/internal/instance"
	"malsched/internal/schedule"
)

// CanonicalList builds the §3.2 schedule for deadline guess lambda: every
// task runs on its canonical number of processors γ_i(λ) and the resulting
// rigid tasks are list-scheduled contiguously in non-increasing t_i(γ_i)
// order with the paper's tie rule (leftmost block when starting at 0,
// rightmost otherwise — rigid.ContiguousList).
//
// reallocate enables the appendix's refinement: when the first task that
// cannot start at time 0 arrives and enough processors are still idle on
// the first level, that task is squeezed onto ⌈γ/2⌉ of the rightmost idle
// processors at time 0 instead (at most doubling its execution time, by
// monotony), and the list algorithm continues on the remaining machine.
//
// Under Theorem 2's conditions — a schedule of length ≤ λ exists, m ≥ m₀(θ)
// and prefix area W ≤ θ·m·λ — the result has makespan ≤ 2θλ = ρλ.
// The function itself always returns a valid schedule when the canonical
// allotment exists (and nil otherwise); the guarantee check lives in the
// dual step.
func CanonicalList(in *instance.Instance, lambda float64, reallocate bool) *schedule.Schedule {
	return oneShot(in, func(c *instance.Compiled, sc *Scratch) *schedule.Schedule {
		e := filled(&sc.seg, c, lambda)
		a := allotmentOf(e, lambda)
		if !a.OK {
			return nil
		}
		d, _ := canonicalListFromAllotment(c, a, e.Val.sortedOrder(c, a, &sc.keys), reallocate, sc)
		return d.schedule()
	})
}

// canonicalPair makes sc.clist the canonical-list pair of the seg entry e
// (allotment a, order order). The pair reads nothing else of λ, so the
// entry that built what sc.clist holds builds nothing. The plain list runs
// only when the reallocation fired: a pass that did not fire is the plain
// list placement for placement, and ties keep the earlier draft (the
// winner is still reported as "canonical-list+realloc", as the tie rule
// always reported it). stop is polled between the passes; when it fires
// the pair stays untagged and canonicalPair reports false.
func (sc *Scratch) canonicalPair(c *instance.Compiled, e *segEntry, a Allotment, order []int, stop func() bool) bool {
	if sc.clistOf == e && e.Val.clisted {
		return true
	}
	sc.clistBuilds++
	var fired bool
	sc.clist[1], fired = canonicalListFromAllotment(c, a, order, true, sc)
	sc.clist[0].algorithm = "" // unbuilt, buffer kept
	if fired {
		if stop() {
			return false
		}
		sc.clist[0], _ = canonicalListFromAllotment(c, a, order, false, sc)
	}
	sc.clistOf, e.Val.clisted = e, true // only now: the pair is whole
	return true
}

// canonicalListFromAllotment builds the list schedule, as a draft in
// scratch memory, from an existing allotment and its by-decreasing-time
// order (the segment cache's, shared by both reallocation variants). order
// is read, never modified.
//
// fired reports that the reallocation squeezed a task. The reallocate flag
// is read only at the first task that cannot start at time 0, and when the
// squeeze condition fails there the code falls through to the ordinary
// placement — so a pass that did not fire placed every task exactly as the
// reallocate=false pass does, and the dual step runs that second pass only
// after a fired one (TestUnfiredReallocationIsThePlainList pins it).
// Writing sc.clist's buffer ends whatever pair was kept there: the tag is
// cleared on entry and only canonicalPair sets it.
func canonicalListFromAllotment(c *instance.Compiled, a Allotment, order []int, reallocate bool, sc *Scratch) (d draft, fired bool) {
	sc.clistOf = nil
	m := c.M()
	d = draft{algorithm: "canonical-list"}
	buf := &sc.clist[0].placements
	if reallocate {
		d.algorithm = "canonical-list+realloc"
		buf = &sc.clist[1].placements
	}
	d.placements = placementsBuf(buf, len(order))

	front := floatsBuf(&sc.front, m)
	limit := m       // active machine width (shrinks after a reallocation)
	checked := false // the reallocation rule applies only at the first level-2 event
	// While every task so far started at 0 and ended later (times are
	// positive — task.checkTimes), the zero-frontier processors are exactly
	// the suffix [filled, limit), so the leftmost-at-zero window of a task
	// that still fits is x = filled and needs no search. The fast path is
	// left for good at the first task that does not fit, or whose end is
	// not > 0 (an instance hand-rolled around validation).
	level1, filled := true, 0
	for _, i := range order {
		w := a.Gamma[i]
		if w > limit {
			// After a reallocation the active machine narrowed below this
			// task's canonical width; run it on the full remaining width
			// (more processors never hurt, fewer are impossible here).
			w = limit
		}
		var x int
		var start float64
		if level1 && filled+w <= limit {
			x = filled
		} else {
			level1 = false
			x, start = sc.win.Best(front[:limit], w)
		}
		if reallocate && !checked && start > 0 {
			checked = true
			// Count idle first-level processors (frontier still 0); by the
			// leftmost-at-zero rule they form the suffix of the machine.
			idle := 0
			for j := limit - 1; j >= 0 && front[j] == 0; j-- {
				idle++
			}
			half := (a.Gamma[i] + 1) / 2
			if half <= idle && half >= 1 && limit-half >= 1 {
				d.place(c, i, 0, half, limit-half)
				limit -= half
				fired = true
				continue
			}
		}
		end := d.place(c, i, start, w, x)
		for k := x; k < x+w; k++ {
			front[k] = end
		}
		if level1 {
			if end > 0 {
				filled += w
			} else {
				level1 = false
			}
		}
	}
	return d, fired
}
