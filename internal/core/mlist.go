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
// (Properties 1+2 guarantee they fit when the canonical work test of
// DualStep passed) and the sequential rest is LPT-scheduled behind them in
// non-increasing t(1) order. Theorem 1: the result has makespan ≤
// (2−2/(m+1))·λ whenever a schedule of length ≤ λ exists.
//
// It returns nil when the construction's preconditions fail, which
// certifies (through Properties 1 and 2) that no schedule of length ≤ λ
// exists.
func MalleableList(in *instance.Instance, lambda float64) *schedule.Schedule {
	return oneShot(in, func(c *instance.Compiled, sc *Scratch) *schedule.Schedule {
		return malleableList(c, lambda, sc)
	})
}

// malleableList is MalleableList on scratch memory: the relaxed-deadline
// allotment comes from the mseg segment cache, and the precompiled
// sequential order (parallel tasks first: every parallel task has
// t(1) > deadline ≥ any sequential task's t(1), so one global sort by
// non-increasing t(1) realises the paper's ordering) replaces a per-probe
// sort.
func malleableList(c *instance.Compiled, lambda float64, sc *Scratch) *schedule.Schedule {
	in := c.Instance()
	m := in.M
	deadline := RhoList(m) * lambda

	e := sc.mseg.filled(c, deadline)
	if !e.ok {
		return nil // not even the relaxed deadline is reachable
	}
	alloc := e.gamma
	order := c.SeqOrder()

	s := &schedule.Schedule{Algorithm: "malleable-list"}
	x := 0
	seq := sc.seq[:0]
	for _, i := range order {
		if alloc[i] >= 2 {
			if x+alloc[i] > m {
				return nil // Property 1+2 violated: OPT > λ
			}
			s.Placements = append(s.Placements, schedule.Placement{
				Task: i, Start: 0, Width: alloc[i], First: x,
			})
			x += alloc[i]
		} else {
			seq = append(seq, i)
		}
	}

	sc.seq = seq // keep the grown backing array for the next probe

	// Release times: processors under a parallel task free at its end.
	release := floatsBuf(&sc.release, m)
	for _, p := range s.Placements {
		end := p.End(in)
		for k := p.First; k < p.First+p.Width; k++ {
			release[k] = end
		}
	}
	durations := floatsBuf(&sc.durations, len(seq))
	for k, i := range seq {
		durations[k] = c.SeqTime(i)
	}
	// seq is already in non-increasing t(1) order; LPT in index order.
	proc, start := rigid.LPT(m, durations, release, nil)
	for k, i := range seq {
		s.Placements = append(s.Placements, schedule.Placement{
			Task: i, Start: start[k], Width: 1, First: proc[k],
		})
	}

	// Defensive check of Theorem 1's promise; callers treat nil as "reject".
	if !task.Leq(s.Makespan(in), deadline) {
		return nil
	}
	return s
}
