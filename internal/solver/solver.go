// Package solver is the pluggable solver layer between the engine and the
// algorithms: a named registry of everything that can turn an instance into
// a certified schedule. The paper's √3-approximation ("mrt"), the six
// two-phase/naive baselines, the exhaustive-search reference ("exact",
// auto-gated to tiny instances) and the "portfolio" meta-solver all register
// here, and the engine dispatches by name instead of string-switching —
// adding a solver is one Register call, visible to the facade, the batch
// engine, cmd/msched and cmd/msbench at once.
//
// Every registered solver must return a complete plan with a certified
// lower bound and self-validate the pair through verify.Plan before
// returning, so callers can compare solvers by certified ratio without
// trusting them.
package solver

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/schedule"
)

// Options tunes one Solve call. The zero value is the paper's
// configuration.
type Options struct {
	// Eps is the dichotomic search tolerance; the guarantee is √3(1+Eps).
	Eps float64
	// Compact greedily left-shifts the final schedule.
	Compact bool

	// Compiled carries the instance's precompiled λ-breakpoint tables
	// (instance.Compile) when the caller — the engine's compiled cache,
	// the scheduling service — already holds them; nil lets the solver
	// compile per search. The tables are immutable, so concurrent
	// sub-solvers (a portfolio's members) may all share them.
	Compiled *instance.Compiled

	// Scratch and Interrupt are the engine's per-worker hooks: reusable
	// probe buffers (nil allocates) and the per-instance timeout channel
	// (nil never fires). Solvers running sub-solvers concurrently must
	// hand the Scratch to at most one of them.
	Scratch   *core.Scratch
	Interrupt <-chan struct{}

	// WarmStart, when non-nil, runs the dual search in warm mode
	// (core.Options.WarmStart): results stay bit-identical to a cold
	// solve, the seed is updated in place for the lineage's next solve,
	// and only probe accounting changes. Solvers without a dual search
	// ignore it; the portfolio hands it to at most its "mrt" member.
	WarmStart *core.WarmStart

	// Trace, when non-nil, collects the dual search's probe
	// trajectory (core.Options.Trace). Pure observation: results are
	// bit-identical traced or not. Solvers without a dual search ignore
	// it; the portfolio leaves it untouched (members race concurrently, so
	// no single trajectory is "the" solve).
	Trace *core.SolveTrace

	// Edges, when non-nil, is the successor-list DAG over the instance's
	// tasks: Edges[i] lists the tasks that may start only after task i
	// completes. Only edge-aware solvers (SupportsEdges) accept it; the
	// engine rejects edges handed to any other solver with
	// ErrEdgesUnsupported instead of letting the DAG silently degrade to
	// its independent-task projection.
	Edges [][]int
}

// ErrEdgesUnsupported reports precedence edges handed to a solver that does
// not understand them. Dropping the edges would be worse than failing: the
// plan would be valid for the projection but violate the DAG.
var ErrEdgesUnsupported = errors.New("solver: solver does not accept precedence edges")

// EdgeAware marks solvers that consume Options.Edges. The marker is a
// method rather than a registry flag so external solvers (Func) stay
// conservatively edge-blind unless they opt in explicitly.
type EdgeAware interface {
	EdgeAware() bool
}

// SupportsEdges reports whether the solver opted into Options.Edges.
func SupportsEdges(s Solver) bool {
	ea, ok := s.(EdgeAware)
	return ok && ea.EdgeAware()
}

// Solution is the outcome of scheduling one instance: the validated plan
// plus its certificates and provenance. It is the one result type from the
// registry to the public surface: engine.Solution and malsched.Result are
// aliases of it.
type Solution struct {
	// Plan is the schedule; always complete and validated.
	Plan *schedule.Schedule
	// Makespan is the parallel execution time achieved.
	Makespan float64
	// LowerBound is a certified lower bound on the optimal makespan, so
	// Makespan/LowerBound bounds the true approximation ratio of this run.
	LowerBound float64
	// Branch names the paper construction (or baseline) that produced the
	// plan: "malleable-list", "canonical-list[+realloc]", "two-shelf", …
	Branch string
	// Solver names the registered solver that produced the plan; for
	// portfolio runs it is the winning member, not "portfolio".
	Solver string
	// Probes counts dual-approximation steps performed (0 for solvers
	// without a dual search; portfolios sum their members'). The benchmark
	// harness derives probe throughput from it, and the replanning
	// benchmarks use it as their cost metric.
	Probes int
	// Synthesized counts probe outcomes a warm-mode dual search resolved
	// from the compiled segment tables without a dual step (0 for cold
	// solves and solvers without a dual search, and so always 0 through
	// the malsched facade, which has no warm entry point; see
	// engine.Engine.ScheduleWarm).
	Synthesized int
	// Trace is the dual search's probe trajectory, present only when the
	// engine's Options.Trace was set and the solve actually ran a search
	// (empty Probes for solvers without a dual search; nil on memo hits,
	// which ran no search). Only the engine sets it; solvers record into
	// Options.Trace instead.
	Trace *core.SolveTrace
}

// Ratio returns Makespan / LowerBound, the certified ratio.
func (s Solution) Ratio() float64 { return s.Makespan / s.LowerBound }

// Gantt renders the plan as an ASCII chart with the given number of
// columns.
func (s Solution) Gantt(in *instance.Instance, cols int) string {
	return schedule.Gantt(in, s.Plan, cols)
}

// Solver turns an instance into a certified solution. Implementations must
// be safe for concurrent Solve calls on distinct instances (the engine's
// workers share one Solver value) and must validate their own plans.
type Solver interface {
	// Name is the registry key, stable across releases.
	Name() string
	// Solve schedules the instance. The returned plan and certificates
	// must pass verify.Plan; the lower bound must be certified.
	Solve(in *instance.Instance, o Options) (Solution, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Solver)
)

// Register adds a solver under its Name. It panics on an empty name or a
// duplicate registration — both are wiring bugs, caught at init time.
func Register(s Solver) {
	name := s.Name()
	if name == "" {
		panic("solver: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solver: duplicate registration of %q", name))
	}
	registry[name] = s
}

// Lookup returns the solver registered under name.
func Lookup(name string) (Solver, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns every registered solver name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ErrUnknown wraps every lookup failure with the registered alternatives.
func ErrUnknown(name string) error {
	return fmt.Errorf("solver: unknown solver %q (registered: %v)", name, Names())
}
