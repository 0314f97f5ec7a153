// Package schedule represents non-preemptive schedules of malleable tasks,
// validates them (single placement per task, processor capacity, optional
// contiguity — the paper's schedules keep each task on consecutively
// indexed processors), and renders ASCII Gantt charts used to reproduce the
// paper's structural figures 1–5.
package schedule

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"malsched/internal/instance"
	"malsched/internal/task"
)

// Placement runs one task on a fixed processor set for its whole duration.
// It is also the service's wire placement (wire.PlacementJSON is an alias):
// the JSON tags are the wire's keys, so encoding/json emits them for any
// Placement.
type Placement struct {
	// Task indexes into the instance's task slice.
	Task int `json:"task"`
	// Start is the start time.
	Start float64 `json:"start"`
	// Width is the number of processors allotted.
	Width int `json:"width"`
	// First is the lowest processor index of a contiguous block of Width
	// processors. First is -1 when ProcSet is used instead.
	First int `json:"first"`
	// ProcSet lists explicit processor indices for non-contiguous
	// placements (len == Width). nil for contiguous placements.
	ProcSet []int `json:"proc_set,omitempty"`
}

// Processors returns the processor indices the placement occupies.
func (p Placement) Processors() []int {
	if p.ProcSet != nil {
		out := make([]int, len(p.ProcSet))
		copy(out, p.ProcSet)
		return out
	}
	out := make([]int, p.Width)
	for i := range out {
		out[i] = p.First + i
	}
	return out
}

// Contiguous reports whether the placement occupies consecutive processors.
func (p Placement) Contiguous() bool {
	if p.ProcSet == nil {
		return true
	}
	s := append([]int(nil), p.ProcSet...)
	sort.Ints(s)
	return consecutive(s)
}

// consecutive reports whether a sorted index list has no gap or repeat.
func consecutive(sorted []int) bool {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1]+1 {
			return false
		}
	}
	return true
}

// End returns the completion time of the placement within the instance.
func (p Placement) End(in *instance.Instance) float64 {
	return p.Start + in.Tasks[p.Task].Time(p.Width)
}

// Schedule is a complete assignment of an instance's tasks, and the
// service's wire plan (wire.PlanJSON is an alias; JSON tags as Placement's).
type Schedule struct {
	// Algorithm names the producer, for reports.
	Algorithm string `json:"algorithm"`
	// Placements holds one entry per task, in any order.
	Placements []Placement `json:"placements"`
}

// Makespan returns the latest completion time, 0 for an empty schedule.
func (s *Schedule) Makespan(in *instance.Instance) float64 {
	var mk float64
	for _, p := range s.Placements {
		if e := p.End(in); e > mk {
			mk = e
		}
	}
	return mk
}

// Work returns the total processor-time actually consumed.
func (s *Schedule) Work(in *instance.Instance) float64 {
	var w float64
	for _, p := range s.Placements {
		w += in.Tasks[p.Task].Work(p.Width)
	}
	return w
}

// Clone returns a deep copy that shares no memory with s, in three
// allocations whatever the number of processor sets: the Schedule, its
// placements, and one backing array for every set. Each set is a
// capacity-capped window of that array, so an append through one
// reallocates instead of reaching its neighbour; nil sets stay nil.
func (s *Schedule) Clone() *Schedule {
	out := new(Schedule)
	s.CloneInto(out, 0)
	return out
}

// CloneInto is Clone into a Schedule the caller allocated, whose old
// contents it overwrites, with extra ints of the caller's own at the end of
// the one backing array: they come back as words, length extra and
// capacity-capped like the sets, so an append through either side
// reallocates. Two allocations, or one when there are no sets and no extra
// words. The engine's memo keeps a plan inside its entry this way, and the
// entry's identity words beside the sets.
func (s *Schedule) CloneInto(dst *Schedule, extra int) (words []int) {
	total := 0
	for _, p := range s.Placements {
		total += len(p.ProcSet)
	}
	backing := make([]int, 0, total+extra)
	*dst = Schedule{Algorithm: s.Algorithm, Placements: make([]Placement, len(s.Placements))}
	for i, p := range s.Placements {
		if p.ProcSet != nil {
			off := len(backing)
			backing = append(backing, p.ProcSet...)
			p.ProcSet = backing[off:len(backing):len(backing)]
		}
		dst.Placements[i] = p
	}
	return backing[len(backing) : len(backing)+extra : len(backing)+extra]
}

// Idle returns the total idle processor-time below the makespan,
// m·makespan − work. It is the waste metric of experiment E10.
func (s *Schedule) Idle(in *instance.Instance) float64 {
	return float64(in.M)*s.Makespan(in) - s.Work(in)
}

// Validation errors.
var (
	ErrMissingTask     = errors.New("schedule: task not placed")
	ErrDuplicateTask   = errors.New("schedule: task placed twice")
	ErrBadWidth        = errors.New("schedule: width outside task profile")
	ErrBadProcessor    = errors.New("schedule: processor index out of machine")
	ErrBadStart        = errors.New("schedule: negative or non-finite start time")
	ErrOverlap         = errors.New("schedule: two tasks overlap on a processor")
	ErrNotContiguous   = errors.New("schedule: placement is not contiguous")
	ErrWidthMismatch   = errors.New("schedule: ProcSet length differs from Width")
	ErrRepeatProcessor = errors.New("schedule: placement uses a processor twice")
)

// slot is the tail of one processor's timeline during Validate's sweep:
// the end of the interval swept onto it last, and 1 + the index of that
// interval's placement (0 while the processor is still free).
type slot struct {
	end float64
	idx int
}

// validateScratch is Validate's working memory, pooled so the check that
// runs on every service response and inside every solver allocates nothing
// in steady state.
type validateScratch struct {
	seen []bool // per task: already placed
	// last[j] is 1 + the index of the last placement that used processor j,
	// so a repeat within one placement shows without a per-placement set.
	last  []int
	procs []int     // sorted copy of one ProcSet, for the contiguity check
	order []int     // placement indices, stably sorted by start
	keys  []float64 // per placement: −start, the sort's key
	tail  []slot    // per processor: the interval the sweep placed on it last
}

var validatePool = sync.Pool{New: func() any { return new(validateScratch) }}

// zeroed returns s resized to n zero elements, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// contiguous is Placement.Contiguous for an explicit processor set, sorting
// in the scratch instead of a fresh copy.
func (sc *validateScratch) contiguous(procSet []int) bool {
	sc.procs = append(sc.procs[:0], procSet...)
	slices.Sort(sc.procs)
	return consecutive(sc.procs)
}

// Validate checks the schedule against the instance. requireContiguous
// additionally enforces the paper's contiguity convention. A nil return
// certifies: every task placed exactly once, widths within profiles,
// processors within the machine and pairwise disjoint in time (up to the
// module tolerance).
func Validate(in *instance.Instance, s *Schedule, requireContiguous bool) error {
	sc := validatePool.Get().(*validateScratch)
	defer validatePool.Put(sc)
	sc.seen = zeroed(sc.seen, in.N())
	sc.last = zeroed(sc.last, in.M)
	for idx := range s.Placements {
		p := &s.Placements[idx]
		if p.Task < 0 || p.Task >= in.N() {
			return fmt.Errorf("schedule: placement references task %d of %d", p.Task, in.N())
		}
		name := in.Tasks[p.Task].Name
		if sc.seen[p.Task] {
			return fmt.Errorf("%w: %s", ErrDuplicateTask, name)
		}
		sc.seen[p.Task] = true
		if p.Width < 1 || p.Width > in.Tasks[p.Task].MaxProcs() {
			return fmt.Errorf("%w: %s on %d procs (profile max %d)", ErrBadWidth, name, p.Width, in.Tasks[p.Task].MaxProcs())
		}
		if p.Start < -task.Eps || math.IsNaN(p.Start) || math.IsInf(p.Start, 0) {
			return fmt.Errorf("%w: %s at %v", ErrBadStart, name, p.Start)
		}
		if p.ProcSet != nil && len(p.ProcSet) != p.Width {
			return fmt.Errorf("%w: %s has %d procs listed for width %d", ErrWidthMismatch, name, len(p.ProcSet), p.Width)
		}
		if requireContiguous && p.ProcSet != nil && !sc.contiguous(p.ProcSet) {
			return fmt.Errorf("%w: %s", ErrNotContiguous, name)
		}
		for k := 0; k < p.Width; k++ {
			j := p.First + k
			if p.ProcSet != nil {
				j = p.ProcSet[k]
			}
			if j < 0 || j >= in.M {
				return fmt.Errorf("%w: %s on processor %d of %d", ErrBadProcessor, name, j, in.M)
			}
			if sc.last[j] == idx+1 {
				return fmt.Errorf("%w: %s on processor %d", ErrRepeatProcessor, name, j)
			}
			sc.last[j] = idx + 1
		}
	}
	for i, ok := range sc.seen {
		if !ok {
			return fmt.Errorf("%w: %s", ErrMissingTask, in.Tasks[i].Name)
		}
	}
	// Sweep the placements in start order: each processor's intervals then
	// arrive in time order, so every interval meets exactly its predecessor
	// on each of its processors — the neighbours a sort by (processor,
	// start) would line up — and must not overlap it. List schedulers emit
	// their placements in start order already, which the stable sort of n
	// indices passes through in linear time. The starts are finite (checked
	// above), so sorting −start non-increasing is sorting start ascending.
	sc.order, sc.keys = sc.order[:0], sc.keys[:0]
	for idx := range s.Placements {
		sc.order = append(sc.order, idx)
		sc.keys = append(sc.keys, -s.Placements[idx].Start)
	}
	task.SortDescending(sc.order, sc.keys)
	sc.tail = zeroed(sc.tail, in.M)
	for _, idx := range sc.order {
		p := &s.Placements[idx]
		end := p.End(in)
		for k := 0; k < p.Width; k++ {
			j := p.First + k
			if p.ProcSet != nil {
				j = p.ProcSet[k]
			}
			// Allow touching intervals up to the module tolerance.
			if t := sc.tail[j]; t.idx != 0 && !task.Leq(t.end, p.Start) {
				a := &s.Placements[t.idx-1]
				return fmt.Errorf("%w: %s and %s on processor %d ([%g,%g] vs [%g,%g])",
					ErrOverlap, in.Tasks[a.Task].Name, in.Tasks[p.Task].Name, j,
					a.Start, t.end, p.Start, end)
			}
			sc.tail[j] = slot{end: end, idx: idx + 1}
		}
	}
	return nil
}

// Compact greedily shifts every placement earlier (preserving its processor
// set) as far as the other placements allow, processing placements in start
// order. It never increases the makespan and often removes the structural
// idle time of shelf schedules; used by the "+compaction" ablation.
func Compact(in *instance.Instance, s *Schedule) *Schedule {
	order := make([]int, len(s.Placements))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.Placements[order[a]].Start < s.Placements[order[b]].Start
	})
	free := make([]float64, in.M) // earliest free time per processor
	out := &Schedule{Algorithm: s.Algorithm + "+compact", Placements: make([]Placement, len(s.Placements))}
	for _, idx := range order {
		p := s.Placements[idx]
		start := 0.0
		for _, j := range p.Processors() {
			if free[j] > start {
				start = free[j]
			}
		}
		if start > p.Start { // only ever move left
			start = p.Start
		}
		np := p
		np.Start = start
		end := np.End(in)
		for _, j := range p.Processors() {
			free[j] = end
		}
		out.Placements[idx] = np
	}
	return out
}
