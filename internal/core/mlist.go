package core

import (
	"malsched/internal/instance"
	"malsched/internal/rigid"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// MalleableList builds the §3.1 schedule for deadline guess lambda: every
// task gets the minimal allotment meeting the relaxed deadline
// (2−2/(m+1))·λ; all parallel tasks then start at time 0 side by side
// (Properties 1+2 guarantee they fit when the dual step's canonical work
// test passed) and the sequential rest is LPT-scheduled behind them in
// non-increasing t(1) order. Theorem 1: the result has makespan ≤
// (2−2/(m+1))·λ whenever a schedule of length ≤ λ exists.
//
// It returns nil when the construction's preconditions fail, which
// certifies (through Properties 1 and 2) that no schedule of length ≤ λ
// exists.
func MalleableList(in *instance.Instance, lambda float64) *schedule.Schedule {
	return oneShot(in, func(c *instance.Compiled, sc *Scratch) *schedule.Schedule {
		return malleableList(c, lambda, sc).schedule()
	})
}

// malleableList is MalleableList as a draft in scratch memory: the
// relaxed-deadline allotment comes from the segment cache the probe
// deadline's does (one lookup, which a caller holding an entry must have
// reserved), and the list it determines from sc.mlist when that entry
// built it — only Theorem 1's check reads the deadline itself.
func malleableList(c *instance.Compiled, lambda float64, sc *Scratch) draft {
	deadline := RhoList(c.M()) * lambda

	e := filled(&sc.seg, c, deadline)
	if !e.OK {
		return draft{} // not even the relaxed deadline is reachable
	}
	if sc.mlistOf != e || !e.Val.mlisted {
		sc.mlist = buildMalleableList(c, e.Gamma, sc)
		sc.mlistOf, e.Val.mlisted = e, true
	}
	// Defensive check of Theorem 1's promise; callers treat an unbuilt
	// draft as "reject".
	if !sc.mlist.built() || !task.Leq(sc.mlist.makespan, deadline) {
		return draft{}
	}
	return sc.mlist
}

// buildMalleableList list-schedules alloc into sc.mlist's buffer in the
// precompiled sequential order (parallel tasks first: every parallel task
// has t(1) > deadline ≥ any sequential task's t(1), so one global sort by
// non-increasing t(1) realises the paper's ordering). The draft is unbuilt,
// whatever the deadline, when the parallel tasks overflow the machine.
func buildMalleableList(c *instance.Compiled, alloc []int, sc *Scratch) draft {
	sc.mlistBuilds++
	m := c.M()

	// Parallel tasks side by side from time 0; the processors under one
	// are released at its end.
	d := draft{algorithm: "malleable-list", placements: placementsBuf(&sc.mlist.placements, c.N())}
	release := floatsBuf(&sc.release, m)
	x := 0
	seq := sc.seq[:0]
	for _, i := range c.SeqOrder() {
		w := alloc[i]
		if w < 2 {
			seq = append(seq, i)
			continue
		}
		if x+w > m {
			d.algorithm = "" // Property 1+2 violated: OPT > λ
			break
		}
		end := d.place(c, i, 0, w, x)
		for k := x; k < x+w; k++ {
			release[k] = end
		}
		x += w
	}
	sc.seq = seq // keep the grown backing array for the next probe, on every path
	if !d.built() {
		return d
	}

	durations := floatsBuf(&sc.durations, len(seq))
	for k, i := range seq {
		durations[k] = c.SeqTime(i)
	}
	// seq is already in non-increasing t(1) order; LPT in index order.
	proc, start := intsBuf(&sc.lptProc, len(seq)), floatsBuf(&sc.lptStart, len(seq))
	rigid.LPTInto(release, durations, nil, proc, start)
	for k, i := range seq {
		d.place(c, i, start[k], 1, proc[k])
	}
	return d
}
