package verify

import (
	"fmt"
	"math"
	"sync"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// Precedence-layer verification errors.
var (
	// ErrEdgeUnplaced reports an edge endpoint with no placement in the
	// plan — the ordering claim is unverifiable, which counts as a failure
	// at a trust boundary.
	ErrEdgeUnplaced = fmt.Errorf("verify: edge endpoint has no placement")
	// ErrPrecedenceViolated reports a task starting before one of its
	// predecessors ends.
	ErrPrecedenceViolated = fmt.Errorf("verify: task starts before a predecessor ends")
)

// precedenceScratch is Precedence's working memory: per task the earliest
// start, the latest end and whether any placement was seen. Pooled, as
// schedule.Validate's is, because both run on every DAG response.
type precedenceScratch struct {
	start, end []float64
	placed     []bool
}

var precedencePool = sync.Pool{New: func() any { return new(precedenceScratch) }}

// Precedence checks the DAG ordering claim of a static plan: for every edge
// i → j of the successor-list representation, task j's start is at or after
// task i's end (up to the module tolerance). The edges themselves are
// admitted through precedence.ValidateEdges first, so a hostile successor
// list fails typed (ErrShape/ErrEdge/ErrCycle) instead of indexing out of
// range. It complements Plan — Plan checks the placements and certificates,
// Precedence the edge ordering — and every DAG-solving trust boundary runs
// both.
func Precedence(in *instance.Instance, succ [][]int, plan *schedule.Schedule) error {
	if in == nil {
		return ErrNilInstance
	}
	if plan == nil {
		return ErrNilPlan
	}
	if err := precedence.ValidateEdges(in.N(), succ); err != nil {
		return err
	}
	sc := precedencePool.Get().(*precedenceScratch)
	defer precedencePool.Put(sc)
	n := in.N()
	if cap(sc.placed) < n {
		sc.start, sc.end, sc.placed = make([]float64, n), make([]float64, n), make([]bool, n)
	}
	// start and end are read only where placed is set, so only placed needs
	// clearing.
	start, end, placed := sc.start[:n], sc.end[:n], sc.placed[:n]
	clear(placed)
	for _, p := range plan.Placements {
		if p.Task < 0 || p.Task >= in.N() {
			return fmt.Errorf("%w: placement references task %d of %d", ErrEdgeUnplaced, p.Task, in.N())
		}
		// schedule.Validate guarantees one placement per task; tolerate
		// duplicates here by widening the interval, which can only make the
		// ordering check stricter.
		s, e := p.Start, p.End(in)
		if !placed[p.Task] || s < start[p.Task] {
			start[p.Task] = s
		}
		if !placed[p.Task] || e > end[p.Task] {
			end[p.Task] = e
		}
		placed[p.Task] = true
	}
	for i, ss := range succ {
		for _, j := range ss {
			if !placed[i] || !placed[j] {
				return fmt.Errorf("%w: edge %d -> %d", ErrEdgeUnplaced, i, j)
			}
			if !task.Geq(start[j], end[i]) {
				return fmt.Errorf("%w: edge %d -> %d, start %v < end %v",
					ErrPrecedenceViolated, i, j, start[j], end[i])
			}
		}
	}
	return nil
}

// TimelineDAG is the executed counterpart of Precedence: Timeline's full
// invariant suite plus the release rule of dependency-aware execution — no
// span of job j may start before the last span of any predecessor i ends.
// Preempted jobs contribute several spans; the rule binds j's earliest
// start against i's latest end, the only ordering under which "predecessor
// finished" is true at release time.
func TimelineDAG(m int, jobs []TimelineJob, succ [][]int, spans []Span) error {
	if err := Timeline(m, jobs, spans); err != nil {
		return err
	}
	if err := precedence.ValidateEdges(len(jobs), succ); err != nil {
		return err
	}
	first := make([]float64, len(jobs))
	last := make([]float64, len(jobs))
	for i := range first {
		first[i] = math.Inf(1)
		last[i] = math.Inf(-1)
	}
	for _, s := range spans {
		if s.Start < first[s.Job] {
			first[s.Job] = s.Start
		}
		if e := s.Start + s.Duration; e > last[s.Job] {
			last[s.Job] = e
		}
	}
	for i, ss := range succ {
		for _, j := range ss {
			// Timeline already enforced span coverage for every job, so
			// first/last are finite here.
			if !task.Geq(first[j], last[i]) {
				return fmt.Errorf("%w: edge %s -> %s, first start %v < last end %v",
					ErrPrecedenceViolated, jobs[i].Task.Name, jobs[j].Task.Name, first[j], last[i])
			}
		}
	}
	return nil
}
