// Package rigid schedules rigid (non-malleable) parallel jobs: each job
// needs a fixed number of processors for a fixed time. It provides the
// scheduling phase of two-phase malleable methods (§1, §3 of the paper):
//
//   - List: Graham-style greedy list scheduling, non-contiguous. The
//     Garey–Graham resource argument the paper quotes gives factor 2 for
//     the non-malleable scheduling problem, and the direct bound
//     makespan ≤ 2·max(W/m, tmax) is asserted by our property tests.
//   - Windower: the window search of frontier list scheduling on
//     consecutively indexed processors, with the paper's tie-breaking
//     convention (leftmost block when starting at time 0, rightmost
//     otherwise); this is the engine of the canonical list algorithm
//     (§3.2).
//   - LPT: Graham's longest-processing-time rule for sequential jobs on
//     processors with release times; the engine of the malleable list
//     algorithm's second phase (§3.1).
package rigid

import (
	"container/heap"
	"fmt"
	"sort"
)

// Job is a rigid parallel job.
type Job struct {
	Width int
	Time  float64
}

// Placement is the result for one job of List: its start and the
// processors it runs on.
type Placement struct {
	Start float64
	Procs []int
}

// End returns the completion time of job j under placement p.
func (p Placement) End(j Job) float64 { return p.Start + j.Time }

// Makespan returns the latest completion over all jobs.
func Makespan(jobs []Job, pls []Placement) float64 {
	var mk float64
	for i, p := range pls {
		if e := p.End(jobs[i]); e > mk {
			mk = e
		}
	}
	return mk
}

// identity returns 0..n-1.
func identity(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// ByDecreasingTime returns a job order sorted by non-increasing Time
// (stable, so equal times keep input order).
func ByDecreasingTime(jobs []Job) []int {
	o := identity(len(jobs))
	sort.SliceStable(o, func(a, b int) bool { return jobs[o[a]].Time > jobs[o[b]].Time })
	return o
}

type event struct {
	t     float64
	procs []int
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// List greedily schedules jobs without contiguity: at time 0 and at every
// completion event it scans the not-yet-started jobs in the given order and
// starts every job that fits in the free processors (lowest free indices
// first, for determinism). order may be nil for input order. Panics if a
// job is wider than m.
func List(m int, jobs []Job, order []int) []Placement {
	if order == nil {
		order = identity(len(jobs))
	}
	for i, j := range jobs {
		if j.Width < 1 || j.Width > m {
			panic(fmt.Sprintf("rigid: job %d width %d outside machine of %d", i, j.Width, m))
		}
	}
	pls := make([]Placement, len(jobs))
	free := identity(m) // sorted free processor indices
	pending := append([]int(nil), order...)
	var events eventHeap
	now := 0.0
	for len(pending) > 0 {
		// Start everything that fits, scanning the list in order.
		remaining := pending[:0]
		for _, i := range pending {
			j := jobs[i]
			if j.Width <= len(free) {
				procs := append([]int(nil), free[:j.Width]...)
				free = free[j.Width:]
				pls[i] = Placement{Start: now, Procs: procs}
				heap.Push(&events, event{t: now + j.Time, procs: procs})
			} else {
				remaining = append(remaining, i)
			}
		}
		pending = remaining
		if len(pending) == 0 {
			break
		}
		if events.Len() == 0 {
			panic("rigid: deadlock with no running jobs") // unreachable: widths ≤ m
		}
		// Advance to the next completion (and absorb simultaneous ones).
		e := heap.Pop(&events).(event)
		now = e.t
		free = append(free, e.procs...)
		for events.Len() > 0 && events[0].t <= now {
			e = heap.Pop(&events).(event)
			free = append(free, e.procs...)
		}
		sort.Ints(free)
	}
	return pls
}

// Windower is the contiguous window search of the canonical list
// algorithm (§3.2) with a reusable buffer: the construction runs one window
// search per task per probe, interleaved with its own reallocation rule.
// The zero value is ready to use; not safe for concurrent use (core's
// Scratch carries one per worker).
type Windower struct {
	suf []float64
}

// Best returns the block of width w with minimal sliding-window maximum of
// front, applying the paper's leftmost-at-zero / rightmost-otherwise tie
// rule; x is -1 when no block of width w fits (w < 1 or w > len(front)).
// It is O(m) by block maxima and follows van Herk and
// Gil–Werman: cut front into blocks of w; a window starting at x spans the
// tail of one block and the head of the next, so its maximum is the larger
// of the tail's running maximum from the block's right end (suf[x], one
// pass per block) and the head's from the next block's left end (kept
// while the window's right edge advances). The windows are scanned left to
// right with the tie rule, exactly as over any other sequence of the same
// maxima. Width 1 — nearly every search the canonical list makes past its
// first level — has the frontiers themselves for maxima and takes one scan.
func (wd *Windower) Best(front []float64, w int) (x int, start float64) {
	m := len(front)
	if w < 1 || w > m {
		return -1, 0
	}
	if w == 1 {
		return earliest(front)
	}
	if cap(wd.suf) < m {
		wd.suf = make([]float64, m)
	}
	suf := wd.suf[:m]
	for lo := 0; lo < m; lo += w {
		hi := min(lo+w, m)
		v := front[hi-1]
		suf[hi-1] = v
		for i := hi - 2; i >= lo; i-- {
			if front[i] > v {
				v = front[i]
			}
			suf[i] = v
		}
	}
	// The first window is block 0 whole; afterwards the right edge r
	// enters a new block at every multiple of w, where the head's running
	// maximum restarts.
	bestX, bestV := 0, suf[0]
	head, next := 0.0, w
	for r := w; r < m; r++ {
		if r == next {
			head, next = front[r], next+w
		} else if front[r] > head {
			head = front[r]
		}
		x, v := r-w+1, suf[r-w+1]
		if head > v {
			v = head
		}
		switch {
		case v < bestV:
			bestX, bestV = x, v
		case v == bestV && bestV > 0:
			bestX = x // rightmost among ties when starting later than 0
		}
		// v == bestV && bestV == 0: keep leftmost.
	}
	return bestX, bestV
}

// earliest is Best at width 1: the earliest frontier under the same tie
// rule (leftmost among zeros, rightmost among later ones).
func earliest(front []float64) (x int, start float64) {
	x, start = 0, front[0]
	for i := 1; i < len(front); i++ {
		switch v := front[i]; {
		case v < start:
			x, start = i, v
		case v == start && start > 0:
			x = i
		}
	}
	return x, start
}

// LPT schedules sequential jobs (durations) onto m processors with the
// given release times: jobs are taken in the given order (callers pass a
// non-increasing duration order for Graham's LPT) and each goes to the
// processor that frees earliest, lowest index among ties. It returns the
// processor and start time per job. release may be nil for all-zero.
func LPT(m int, durations []float64, release []float64, order []int) (proc []int, start []float64) {
	load := make([]float64, m)
	if release != nil {
		if len(release) != m {
			panic(fmt.Sprintf("rigid: %d release times for %d processors", len(release), m))
		}
		copy(load, release)
	}
	proc = make([]int, len(durations))
	start = make([]float64, len(durations))
	LPTInto(load, durations, order, proc, start)
	return proc, start
}

// LPTInto is LPT on caller-owned memory: load holds one entry per
// processor, initialised to its release time, and is advanced in place to
// the final per-processor loads; proc and start (one entry per job) receive
// the result. order may be nil for input order. It allocates nothing.
func LPTInto(load, durations []float64, order []int, proc []int, start []float64) {
	n := len(durations)
	if order != nil {
		n = len(order)
	}
	for k := 0; k < n; k++ {
		i := k
		if order != nil {
			i = order[k]
		}
		best := 0
		for j := 1; j < len(load); j++ {
			if load[j] < load[best] {
				best = j
			}
		}
		proc[i] = best
		start[i] = load[best]
		load[best] += durations[i]
	}
}
