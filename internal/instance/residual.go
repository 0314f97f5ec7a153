package instance

import (
	"errors"
	"fmt"

	"malsched/internal/task"
)

// Residual-instance construction for the online scheduling layer: the
// simulator compiles a whole trace once (Compile) and then, at every
// replanning point, carves the *remaining* work of a subset of its tasks
// into a fresh instance for the planning kernel — without touching the
// original task structs again.

// Residual construction errors.
var (
	ErrNilCompiled  = errors.New("instance: residual of nil compiled instance")
	ErrBadRemaining = errors.New("instance: remaining fraction must be in (0, 1]")
	ErrBadTaskID    = errors.New("instance: residual task id out of range")
)

// Residual builds the remaining-work instance of a subset of a compiled
// workload on an m-processor (sub)machine: entry k becomes compiled task
// ids[k] with profile remaining[k]·t(p) for p = 1..min(MaxProcs, m).
//
// Scaling a monotone profile by a positive factor preserves monotony
// exactly (rounding is order-preserving), so the construction never
// re-validates per element; remaining fractions must lie in (0, 1] — a
// task with nothing left does not belong in a residual instance. The
// malleable interpretation: a task preempted after consuming fraction
// 1−r of its work still needs r·w(p) work at every allotment p, hence
// time r·t(p) — the repartition model of internal/sim's replan policy.
func Residual(c *Compiled, name string, m int, ids []int, remaining []float64) (*Instance, error) {
	if c == nil {
		return nil, ErrNilCompiled
	}
	if len(ids) != len(remaining) {
		return nil, fmt.Errorf("instance: residual %q: %d ids but %d remaining fractions", name, len(ids), len(remaining))
	}
	if m < 1 {
		return nil, fmt.Errorf("%w: m=%d (instance %q)", ErrNoProcs, m, name)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w (instance %q)", ErrNoTasks, name)
	}
	total := 0
	for k, id := range ids {
		if id < 0 || id >= c.N() {
			return nil, fmt.Errorf("%w: %d of %d (instance %q)", ErrBadTaskID, id, c.N(), name)
		}
		if r := remaining[k]; !(r > 0) || r > 1 {
			return nil, fmt.Errorf("%w: task %d has %v (instance %q)", ErrBadRemaining, id, r, name)
		}
		total += min(c.MaxProcs(id), m)
	}
	// One slab holds every scaled row: nobody else references the residual,
	// so its rows and its task slice are handed over, not copied.
	slab := make([]float64, total)
	src := c.Instance()
	tasks := make([]task.Task, len(ids))
	for k, id := range ids {
		mp := min(c.MaxProcs(id), m)
		times := slab[:mp:mp]
		slab = slab[mp:]
		for p := 1; p <= mp; p++ {
			times[p-1] = remaining[k] * c.Time(id, p)
		}
		// Scaling preserves monotony up to rounding; a profile sitting
		// exactly on the tolerance boundary deserves an error, not a panic.
		t, err := task.NewOwned(src.Tasks[id].Name, times)
		if err != nil {
			return nil, fmt.Errorf("instance: residual %q: %w", name, err)
		}
		tasks[k] = t
	}
	return NewOwned(name, m, tasks)
}

// ResidualCompiled builds the residual instance and its compiled tables in
// one pass, mapping parent rows onto residual rows wherever the profile is
// unchanged: a task with remaining fraction 1 has bitwise-equal times
// (1.0·t is exact) and works, so its two columns are copied from the parent
// tables instead of re-read from the task. Only re-scaled tasks are
// written by the same fillRow Compile uses, so the result is
// field-for-field identical to Compile(Residual(...)) — the residual_test
// equivalence suite asserts it bit by bit. This is the compilation half of
// the warm replanning path.
func ResidualCompiled(c *Compiled, name string, m int, ids []int, remaining []float64) (*Instance, *Compiled, error) {
	in, err := Residual(c, name, m, ids, remaining)
	if err != nil {
		return nil, nil, err
	}
	rc := newTables(in)
	for k, id := range ids {
		if remaining[k] != 1 {
			rc.fillRow(k, in.Tasks[k])
			continue
		}
		base, pbase, mp := rc.off[k], c.off[id], in.Tasks[k].MaxProcs()
		copy(rc.times[base:base+mp], c.times[pbase:pbase+mp])
		copy(rc.works[base:base+mp], c.works[pbase:pbase+mp])
	}
	rc.seal()
	return in, rc, nil
}
