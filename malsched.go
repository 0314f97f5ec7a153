// Package malsched schedules independent malleable tasks on identical
// processors with the √3-approximation of Mounié, Rapine and Trystram
// ("Efficient Approximation Algorithms for Scheduling Malleable Tasks",
// SPAA 1999).
//
// A malleable task runs on any number of processors with an execution time
// that depends on the allotment; profiles must be monotone (time
// non-increasing, work non-decreasing with processors — Brent's lemma).
// The library picks an allotment and a non-preemptive contiguous schedule
// whose makespan is within √3(1+ε) of optimal, and additionally reports a
// certified per-instance lower bound so callers can see the actual ratio
// they obtained.
//
// Quickstart (asserted verbatim by ExampleSchedule_quickstart in
// example_test.go):
//
//	tasks := []malsched.Task{
//		malsched.Amdahl("solver", 120, 0.05, 64),
//		malsched.PowerLaw("render", 80, 0.8, 64),
//		malsched.Sequential("io", 15, 64),
//	}
//	in, err := malsched.NewInstance("demo", 64, tasks)
//	if err != nil {
//		log.Fatal(err)
//	}
//	res, err := malsched.Schedule(in, nil)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("makespan %.3f, certified ratio %.3f\n", res.Makespan, res.Ratio())
//
// Scheduling runs through a pluggable solver registry: Options.Solver picks
// any registered solver (Solvers lists them — the paper's "mrt", six
// baselines, an exhaustive "exact" reference for tiny instances), and
// Options.Portfolio runs several concurrently, keeping the plan with the
// smallest makespan under the strongest certified lower bound any member
// produced (Result.Solver names the winner). RegisterSolver plugs in
// external solvers; see docs/ARCHITECTURE.md.
//
// For batches and streams of instances, NewEngine wraps the same pipeline
// in a bounded worker pool with memoisation of repeated workloads; see
// Engine. As a network service, cmd/msserve exposes the engine over
// HTTP/JSON with admission control and per-response verification (Verify
// is the same invariant suite, exposed here); see docs/SERVICE.md.
//
// For the online regime — jobs arriving over time on a live cluster —
// cmd/mssim simulates arrival traces (cmd/msgen -trace) under pluggable
// policies built on this pipeline and certifies every executed timeline
// with VerifyTimeline, the executed-schedule counterpart of Verify; see
// docs/ARCHITECTURE.md ("The simulation layer").
//
// The subpackages under internal implement the paper's machinery (dual
// approximation, canonical allotments, knapsack-based shelf selection) and
// the substrates the evaluation needs (two-phase baselines, strip packers,
// exact solver, experiment harness, batch engine); this package is the
// stable surface.
package malsched

import (
	"malsched/internal/core"
	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/precedence"
	"malsched/internal/schedule"
	"malsched/internal/solver"
	"malsched/internal/task"
	"malsched/internal/verify"
)

// Task is a malleable task (see NewTask and the profile constructors).
type Task = task.Task

// Instance is a set of tasks plus a machine size.
type Instance = instance.Instance

// Placement and Plan describe the produced schedule.
type (
	// Placement runs one task on Width consecutive processors starting at
	// First from time Start.
	Placement = schedule.Placement
	// Plan is a complete schedule of an instance.
	Plan = schedule.Schedule
)

// Profile constructors re-exported from the task model.
var (
	// NewTask builds a task from its time table (times[p-1] = t(p)) and
	// validates monotony.
	NewTask = task.New
	// Monotonize repairs an arbitrary profile into a monotone one.
	Monotonize = task.Monotonize
	// Sequential, Linear, Amdahl, PowerLaw, CommOverhead and Rigid build
	// the standard speedup families.
	Sequential   = task.Sequential
	Linear       = task.Linear
	Amdahl       = task.Amdahl
	PowerLaw     = task.PowerLaw
	CommOverhead = task.CommOverhead
	RigidProfile = task.Rigid
)

// NewInstance builds and validates an instance of n tasks on m processors.
func NewInstance(name string, m int, tasks []Task) (*Instance, error) {
	return instance.New(name, m, tasks)
}

// Options tunes Schedule and Engine; it is the engine's own options type,
// documented field by field there. The zero value (or nil) uses the
// paper's configuration: ρ = √3, search tolerance 1e-3, no compaction, the
// "mrt" solver.
type Options = engine.Options

// SolveTrace and ProbeTrace are the solve-trace types of Options.Trace,
// re-exported from the search core. See docs/OBSERVABILITY.md for the
// trace schema.
type (
	// SolveTrace is one search's probe trajectory plus its wall-clock
	// duration.
	SolveTrace = core.SolveTrace
	// ProbeTrace is one probe outcome.
	ProbeTrace = core.ProbeTrace
)

// Result is a produced schedule plus its certificates: Plan, Makespan,
// LowerBound, the Branch and Solver that produced it, the Probes it took
// and, when Options.Trace was set, its Trace. It is the solver registry's
// own result type, documented field by field there; Synthesized is always
// 0 here, since warm replanning is not exposed by this package.
type Result = engine.Solution

// Schedule runs the √3-approximation (or a named baseline) on the instance
// and returns the schedule with its certificates. The returned plan is
// validated (contiguity included, except the inherently non-contiguous
// "twy-list" baseline) before being handed back.
//
// Schedule and Engine.ScheduleBatch run the exact same deterministic
// pipeline (internal/engine.Solve); the engine only adds buffer reuse and
// memoisation around it, so batching never changes results.
func Schedule(in *Instance, opts *Options) (Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	return engine.Solve(in, *opts)
}

// Solvers returns the names of every registered solver — the paper's "mrt",
// the six baselines, the "exact" reference, the default "portfolio" and any
// solver added with RegisterSolver.
func Solvers() []string { return solver.Names() }

// SolverFunc is a custom scheduling algorithm for RegisterSolver: it must
// return a complete plan (validated non-contiguously by the registry) and a
// certified lower bound for the instance. Eps and Compact are passed
// through in opts; every other field is zero. The returned Result passes
// through as is, except that Solver becomes the registered name, an empty
// Branch becomes the name too, and Synthesized and Trace are zeroed.
type SolverFunc func(in *Instance, opts Options) (Result, error)

// RegisterSolver makes a custom solver available to Schedule, Engine and
// portfolios under the given name (Options.Solver / Options.Portfolio).
// It panics on an empty or duplicate name — registration is init-time
// wiring, not a runtime operation.
func RegisterSolver(name string, fn SolverFunc) {
	solver.Register(solver.Func{
		SolverName: name,
		Fn: func(in *instance.Instance, o solver.Options) (solver.Solution, error) {
			res, err := fn(in, Options{Eps: o.Eps, Compact: o.Compact})
			if err != nil {
				return solver.Solution{}, err
			}
			if res.Branch == "" {
				res.Branch = name
			}
			// Only the engine reports warm synthesis and traces.
			res.Solver, res.Synthesized, res.Trace = name, 0, nil
			return res, nil
		},
	})
}

// LowerBound returns the strongest certified lower bound available (the
// squashed-area dual bound of Property 2).
func LowerBound(in *Instance) float64 { return lowerbound.SquashedArea(in) }

// Validate checks a plan against an instance: every task placed exactly
// once, widths within profiles, processors within the machine, no overlap
// and (optionally) contiguous blocks.
func Validate(in *Instance, p *Plan, requireContiguous bool) error {
	return schedule.Validate(in, p, requireContiguous)
}

// Verify runs the canonical invariant suite on a certified result: plan
// validity (Validate, contiguity included when requireContiguous), monotony
// of the chosen times, the reported makespan matching the plan's, and a
// positive finite lower bound not exceeding it. It is the same check every
// registered solver self-applies and the msserve service enforces on every
// response; exposed for external solvers and harnesses.
func Verify(in *Instance, r Result, requireContiguous bool) error {
	return verify.Plan(in, verify.Certified{
		Plan:       r.Plan,
		Makespan:   r.Makespan,
		LowerBound: r.LowerBound,
	}, requireContiguous)
}

// TimelineJob and TimelineSpan describe an executed online workload for
// VerifyTimeline: jobs are malleable profiles with release times, spans
// are the uninterrupted runs an executor (cmd/mssim's simulator, or any
// external cluster harness) actually performed — a preempted job
// contributes several spans, each covering part of its work.
type (
	// TimelineJob is a job of the workload: profile plus arrival time.
	TimelineJob = verify.TimelineJob
	// TimelineSpan is one executed run of a job on a fixed processor set.
	TimelineSpan = verify.Span
)

// VerifyTimeline checks an executed timeline of an online workload on an
// m-processor cluster: every span well-formed and within its job's
// profile, no processor oversubscribed, no span starting before its job's
// arrival, and per-job work conservation — each job's spans cover exactly
// its whole work, with each span's wall-clock duration consistent with the
// declared runtime-noise factor. It is the invariant suite cmd/mssim
// self-applies to every simulated run; exposed for external executors and
// harnesses the same way Verify is for static plans.
func VerifyTimeline(m int, jobs []TimelineJob, spans []TimelineSpan) error {
	return verify.Timeline(m, jobs, spans)
}

// Precedence-DAG helpers, re-exported from the precedence layer so DAG
// workloads are first-class at the public surface (Options.Edges).
var (
	// ChainEdges builds the successor lists of the linear order
	// 0 → 1 → … → n−1.
	ChainEdges = precedence.ChainEdges
	// OutTreeEdges builds a rooted out-tree in which task i > 0 depends on
	// task (i−1)/arity; arity < 1 is a returned error.
	OutTreeEdges = precedence.OutTreeEdges
	// ValidateEdges checks a successor-list DAG against a task count:
	// exactly n lists, endpoints in range, no cycle. Every layer that
	// accepts edges from outside runs it.
	ValidateEdges = precedence.ValidateEdges
)

// VerifyPrecedence checks the DAG ordering claim of a static plan: for
// every edge i → j, task j starts at or after task i ends. It complements
// Verify (which checks placements and certificates) and is what the "dag"
// solvers self-apply and msserve enforces on every DAG response.
func VerifyPrecedence(in *Instance, edges [][]int, p *Plan) error {
	return verify.Precedence(in, edges, p)
}

// VerifyTimelineDAG is the executed counterpart of VerifyPrecedence:
// VerifyTimeline's full suite plus the dependency release rule — no span of
// a job starts before the last span of any predecessor ends.
func VerifyTimelineDAG(m int, jobs []TimelineJob, edges [][]int, spans []TimelineSpan) error {
	return verify.TimelineDAG(m, jobs, edges, spans)
}
