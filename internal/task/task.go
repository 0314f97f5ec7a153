// Package task defines the malleable-task model of Mounié, Rapine and
// Trystram (SPAA 1999): a computational unit whose execution time t(p)
// depends on the number p of identical processors allotted to it.
//
// Tasks are monotone: t(p) is non-increasing in p while the work
// w(p) = p·t(p) is non-decreasing in p (Brent's lemma — parallelism gives
// speedup, but never super-linear speedup). All algorithms in this module
// rely on the two consequences the paper states as Property 1 and
// Property 2; both are exposed here for reuse and for property tests.
package task

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eps is the relative tolerance used for every floating-point comparison of
// times and areas throughout the module.
const Eps = 1e-9

// Leq reports whether x ≤ y up to the module-wide relative tolerance.
func Leq(x, y float64) bool {
	return x <= y+Eps*(math.Abs(x)+math.Abs(y)+1)
}

// Geq reports whether x ≥ y up to the module-wide relative tolerance.
func Geq(x, y float64) bool { return Leq(y, x) }

// Task is an immutable malleable task. The zero value is invalid; use New
// or one of the profile constructors in profiles.go.
type Task struct {
	// Name identifies the task in schedules, Gantt charts and errors.
	Name string
	// times[p-1] is the execution time on p processors, p = 1..MaxProcs.
	times []float64
}

// Validation errors returned by New.
var (
	ErrEmpty        = errors.New("task: no execution times")
	ErrNonPositive  = errors.New("task: execution times must be positive and finite")
	ErrTimeIncrease = errors.New("task: execution time increases with processors (not monotone)")
	ErrWorkDecrease = errors.New("task: work decreases with processors (super-linear speedup)")
)

// New builds a task from its execution-time table: times[p-1] is the time on
// p processors. It validates the monotone hypothesis and returns a
// descriptive error when it is violated; use Monotonize to repair a profile
// instead of rejecting it.
func New(name string, times []float64) (Task, error) {
	if err := checkTimes(name, times); err != nil {
		return Task{}, err
	}
	cp := make([]float64, len(times))
	copy(cp, times)
	return Task{Name: name, times: cp}, nil
}

// NewOwned is New without the defensive copy: the task takes ownership of
// times, which the caller must not modify afterwards. Validation is New's.
// Decoders that fill a table nobody else references use it — hand it a
// capacity-capped slice when the table is carved out of a shared slab.
func NewOwned(name string, times []float64) (Task, error) {
	if err := checkTimes(name, times); err != nil {
		return Task{}, err
	}
	return Task{Name: name, times: times}, nil
}

// checkTimes validates a time table in place: non-empty, positive and
// finite, time non-increasing and work non-decreasing (the monotone
// hypothesis). New and Check share it. monotoneTimes decides in one loop;
// only a table it refuses is walked again, by timesError, which words the
// rejection.
func checkTimes(name string, times []float64) error {
	if len(times) == 0 {
		return fmt.Errorf("%w (task %q)", ErrEmpty, name)
	}
	if monotoneTimes(times) {
		return nil
	}
	return timesError(name, times)
}

// monotoneTimes is the verdict of timesError's two loops on a non-empty
// table, in one: every time positive and finite (once t > 0 has excluded
// NaN, t > MaxFloat64 is +Inf), every step's time and work compared
// exactly as there.
func monotoneTimes(times []float64) bool {
	prev := times[0]
	if !(prev > 0) || prev > math.MaxFloat64 {
		return false
	}
	for p := 1; p < len(times); p++ {
		t := times[p]
		if !(t > 0) || t > math.MaxFloat64 || t > prev*(1+Eps) ||
			float64(p+1)*t < float64(p)*prev*(1-Eps) {
			return false
		}
		prev = t
	}
	return true
}

// timesError is the error of a non-empty table — nil when it is valid:
// every time's positivity first, then each step's monotony.
func timesError(name string, times []float64) error {
	for p, t := range times {
		if !(t > 0) || math.IsInf(t, 0) {
			return fmt.Errorf("%w: t(%d)=%v (task %q)", ErrNonPositive, p+1, t, name)
		}
	}
	for p := 1; p < len(times); p++ {
		if times[p] > times[p-1]*(1+Eps) {
			return fmt.Errorf("%w: t(%d)=%g > t(%d)=%g (task %q)",
				ErrTimeIncrease, p+1, times[p], p, times[p-1], name)
		}
		wPrev := float64(p) * times[p-1]
		wCur := float64(p+1) * times[p]
		if wCur < wPrev*(1-Eps) {
			return fmt.Errorf("%w: w(%d)=%g < w(%d)=%g (task %q)",
				ErrWorkDecrease, p+1, wCur, p, wPrev, name)
		}
	}
	return nil
}

// Check re-validates the task's profile against New's invariants without
// copying it. Tasks built through New always pass; the check exists for
// trust boundaries fed hand-rolled values — the batch engine and the
// scheduling service run it before solving (a zero Task, for example, has
// no profile at all and fails with ErrEmpty).
func (t Task) Check() error { return checkTimes(t.Name, t.times) }

// MustNew is New that panics on error; for tests and literals.
func MustNew(name string, times []float64) Task {
	t, err := New(name, times)
	if err != nil {
		panic(err)
	}
	return t
}

// Monotonize repairs an arbitrary positive time table into the closest
// monotone one from above, and returns it (the input is not modified).
//
// The repair has a physical reading: an allotment of p processors may always
// emulate any q < p by idling p−q of them, so the effective time is
// min_{q≤p} t(q); and whenever that would make work decrease, the time is
// raised to w-preserving level (p−1)/p·t(p−1), i.e. the extra processor is
// not used. Both passes keep times within [min t, max t].
func Monotonize(times []float64) []float64 {
	out := make([]float64, len(times))
	copy(out, times)
	for p := 1; p < len(out); p++ {
		if out[p] > out[p-1] { // more processors may simply idle
			out[p] = out[p-1]
		}
		// Enforce non-decreasing work: p·t(p) ≥ (p-1)·t(p-1) exactly.
		if floor := out[p-1] * float64(p) / float64(p+1); out[p] < floor {
			out[p] = floor
		}
	}
	return out
}

// MaxProcs returns the largest processor count the profile covers. Profiles
// are defined for p = 1..MaxProcs; schedulers never allot more.
func (t Task) MaxProcs() int { return len(t.times) }

// SameTimes reports whether the task's time table is exactly times: the
// same length and every entry's bit pattern equal. The engine's caches,
// which key a table by a fingerprint, compare with it before they answer.
func (t Task) SameTimes(times []float64) bool {
	if len(times) != len(t.times) {
		return false
	}
	for p, v := range t.times {
		if math.Float64bits(v) != math.Float64bits(times[p]) {
			return false
		}
	}
	return true
}

// Time returns t(p), the execution time on p processors.
// It panics if p is outside 1..MaxProcs: allotting an undefined processor
// count is a scheduler bug, not an input error.
func (t Task) Time(p int) float64 {
	if p < 1 || p > len(t.times) {
		t.outOfProfile(p)
	}
	return t.times[p-1]
}

// outOfProfile is Time's panic, kept out of line so Time itself inlines
// into the loops that walk whole profiles.
//
//go:noinline
func (t Task) outOfProfile(p int) {
	panic(fmt.Sprintf("task %q: Time(%d) with profile of %d processors", t.Name, p, len(t.times)))
}

// Work returns w(p) = p·t(p), the computational area on p processors.
func (t Task) Work(p int) float64 { return float64(p) * t.Time(p) }

// SeqTime returns t(1), the sequential execution time (also the minimal
// possible work of the task, by monotony).
func (t Task) SeqTime() float64 { return t.times[0] }

// MinTime returns t(MaxProcs), the fastest possible execution time.
func (t Task) MinTime() float64 { return t.times[len(t.times)-1] }

// Canonical returns γ(λ) = min{p : t(p) ≤ λ}, the canonical number of
// processors for deadline λ, and whether it exists (it does not when even
// the full profile is slower than λ). Comparisons use the module tolerance.
// O(log MaxProcs) by binary search on the non-increasing time table.
func (t Task) Canonical(lambda float64) (int, bool) {
	if !Leq(t.times[len(t.times)-1], lambda) {
		return 0, false
	}
	p := sort.Search(len(t.times), func(i int) bool { return Leq(t.times[i], lambda) })
	return p + 1, true
}

// Times returns a copy of the execution-time table (index p-1 holds t(p)).
func (t Task) Times() []float64 {
	cp := make([]float64, len(t.times))
	copy(cp, t.times)
	return cp
}

// Scale returns a copy of the task with every execution time multiplied by
// f > 0. Scaling preserves monotony.
func (t Task) Scale(f float64) Task {
	cp := make([]float64, len(t.times))
	for i, v := range t.times {
		cp[i] = v * f
	}
	return Task{Name: t.Name, times: cp}
}

// Truncate returns a copy of the task restricted to at most m processors.
// m must be ≥ 1; profiles shorter than m are returned unchanged.
func (t Task) Truncate(m int) Task {
	if m < 1 {
		panic(fmt.Sprintf("task %q: Truncate(%d)", t.Name, m))
	}
	if m >= len(t.times) {
		return t
	}
	cp := make([]float64, m)
	copy(cp, t.times[:m])
	return Task{Name: t.Name, times: cp}
}

// TruncateOwned is Truncate without the copy: the result views the first m
// entries of t's own table (capacity capped, so nothing can append into the
// rest). Tasks are immutable, so the sharing is safe; the cost is that the
// whole table stays reachable. Decoders that built the table themselves and
// drop t use it.
func (t Task) TruncateOwned(m int) Task {
	if m < 1 {
		panic(fmt.Sprintf("task %q: TruncateOwned(%d)", t.Name, m))
	}
	if m >= len(t.times) {
		return t
	}
	return Task{Name: t.Name, times: t.times[:m:m]}
}

// String implements fmt.Stringer with a compact profile summary.
func (t Task) String() string {
	return fmt.Sprintf("%s{t(1)=%.4g t(%d)=%.4g}", t.Name, t.SeqTime(), t.MaxProcs(), t.MinTime())
}
