// Package instance groups malleable tasks with a machine description and
// provides the workload generators used by the paper's experiment suite:
// mixed random workloads over the standard speedup families, adversarial
// instances stressing each theorem, and the adaptive-mesh motif of the
// ocean-circulation application the paper's introduction cites.
package instance

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"malsched/internal/task"
)

// Instance is a set of independent malleable tasks to schedule on M
// identical processors.
type Instance struct {
	// Name labels the instance in reports.
	Name string
	// M is the number of identical processors.
	M int
	// Tasks are the malleable tasks. Profiles may be narrower than M
	// (schedulers allot at most MaxProcs) but never wider after Normalize.
	Tasks []task.Task
}

// Validation errors.
var (
	ErrNoProcs = errors.New("instance: number of processors must be ≥ 1")
	ErrNoTasks = errors.New("instance: no tasks")
)

// New builds and validates an instance. Task profiles wider than m are
// truncated to m processors (allotments beyond m are meaningless on an
// m-processor machine and truncation preserves monotony).
func New(name string, m int, tasks []task.Task) (*Instance, error) {
	if err := checkShape(name, m, len(tasks)); err != nil {
		return nil, err
	}
	ts := make([]task.Task, len(tasks))
	for i, tk := range tasks {
		ts[i] = tk.Truncate(m)
	}
	return &Instance{Name: name, M: m, Tasks: ts}, nil
}

// NewOwned is New without the copies: the instance takes ownership of
// tasks, truncating wide profiles in place (task.TruncateOwned), so the
// caller must not use the slice afterwards. Validation is New's. Decoders
// that built the slice themselves use it.
func NewOwned(name string, m int, tasks []task.Task) (*Instance, error) {
	if err := checkShape(name, m, len(tasks)); err != nil {
		return nil, err
	}
	for i, tk := range tasks {
		if tk.MaxProcs() > m {
			tasks[i] = tk.TruncateOwned(m)
		}
	}
	return &Instance{Name: name, M: m, Tasks: tasks}, nil
}

// checkShape is the validation New and NewOwned share.
func checkShape(name string, m, n int) error {
	if m < 1 {
		return fmt.Errorf("%w: m=%d (instance %q)", ErrNoProcs, m, name)
	}
	if n == 0 {
		return fmt.Errorf("%w (instance %q)", ErrNoTasks, name)
	}
	return nil
}

// ErrNilInstance reports a nil *Instance handed to Check.
var ErrNilInstance = errors.New("instance: nil instance")

// Check validates an already-built instance: a machine of at least one
// processor, at least one task, and every task profile passing task.Check
// (non-empty, positive, finite, monotone). Instances built through New
// always pass; the check is the admission gate for values hand-rolled as
// struct literals — the batch engine and the scheduling service run it
// before solving so poisoned instances (zero processors, nil profiles, NaN
// times) fail with a typed error instead of panicking mid-pipeline.
func Check(in *Instance) error {
	if in == nil {
		return ErrNilInstance
	}
	if in.M < 1 {
		return fmt.Errorf("%w: m=%d (instance %q)", ErrNoProcs, in.M, in.Name)
	}
	if len(in.Tasks) == 0 {
		return fmt.Errorf("%w (instance %q)", ErrNoTasks, in.Name)
	}
	for i, t := range in.Tasks {
		if err := t.Check(); err != nil {
			return fmt.Errorf("instance %q: task %d: %w", in.Name, i, err)
		}
	}
	return nil
}

// MustNew is New that panics on error; for tests and generators.
func MustNew(name string, m int, tasks []task.Task) *Instance {
	in, err := New(name, m, tasks)
	if err != nil {
		panic(err)
	}
	return in
}

// N returns the number of tasks.
func (in *Instance) N() int { return len(in.Tasks) }

// MinTotalWork returns Σ_i w_i(1), the least possible total work of any
// schedule (work is minimal on one processor by monotony).
func (in *Instance) MinTotalWork() float64 {
	var s float64
	for _, t := range in.Tasks {
		s += t.SeqTime()
	}
	return s
}

// MaxMinTime returns max_i t_i(m'), the longest unavoidable task duration,
// where m' = min(m, MaxProcs of the task).
func (in *Instance) MaxMinTime() float64 {
	var mx float64
	for _, t := range in.Tasks {
		if mt := t.MinTime(); mt > mx {
			mx = mt
		}
	}
	return mx
}

// Scale returns a copy of the instance with all execution times multiplied
// by f > 0.
func (in *Instance) Scale(f float64) *Instance {
	ts := make([]task.Task, len(in.Tasks))
	for i, t := range in.Tasks {
		ts[i] = t.Scale(f)
	}
	return &Instance{Name: in.Name, M: in.M, Tasks: ts}
}

// IsMonotone reports whether every task satisfies the monotone hypothesis.
func (in *Instance) IsMonotone() bool {
	for _, t := range in.Tasks {
		if !t.IsMonotone() {
			return false
		}
	}
	return true
}

// jsonInstance is the on-disk representation.
type jsonInstance struct {
	Name  string     `json:"name"`
	M     int        `json:"m"`
	Tasks []jsonTask `json:"tasks"`
}

type jsonTask struct {
	Name  string    `json:"name"`
	Times []float64 `json:"times"`
}

// WriteJSON encodes the instance.
func (in *Instance) WriteJSON(w io.Writer) error {
	ji := jsonInstance{Name: in.Name, M: in.M, Tasks: make([]jsonTask, len(in.Tasks))}
	for i, t := range in.Tasks {
		ji.Tasks[i] = jsonTask{Name: t.Name, Times: t.Times()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ji)
}

// ReadJSON decodes and validates an instance, including the monotone
// hypothesis on every task profile.
func ReadJSON(r io.Reader) (*Instance, error) {
	var ji jsonInstance
	if err := json.NewDecoder(r).Decode(&ji); err != nil {
		return nil, fmt.Errorf("instance: decoding JSON: %w", err)
	}
	tasks := make([]task.Task, len(ji.Tasks))
	for i, jt := range ji.Tasks {
		t, err := task.New(jt.Name, jt.Times)
		if err != nil {
			return nil, fmt.Errorf("instance: task %d: %w", i, err)
		}
		tasks[i] = t
	}
	return New(ji.Name, ji.M, tasks)
}
