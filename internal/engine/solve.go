// Package engine is the high-throughput scheduling substrate behind the
// malsched facade: the single-instance solve pipeline (a named solver from
// the registry — the paper's dual-approximation search by default), an LRU
// memo keyed by a name-independent instance fingerprint, and a bounded
// worker pool that schedules batches and streams of instances with
// per-instance timeouts and error isolation.
//
// The facade's malsched.Schedule and malsched.Engine both run through Solve
// here, so batch results are bit-identical to sequential calls by
// construction; the engine only adds reuse (pooled core.Scratch buffers,
// memoised solutions) around the same deterministic pipeline.
package engine

import (
	"fmt"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/solver"
)

// Options selects and tunes the per-instance pipeline. The facade
// re-exports it as malsched.Options. The zero value is the paper's
// configuration: ρ = √3, search tolerance 1e-3, no compaction, the "mrt"
// solver.
type Options struct {
	// Eps is the dichotomic search tolerance; the guarantee is √3(1+Eps).
	Eps float64
	// Compact greedily left-shifts the final schedule (never increases the
	// makespan; changes the shelf structure).
	Compact bool
	// Solver names the registered solver to run; empty means the paper's
	// algorithm ("mrt"). solver.Names (malsched.Solvers) lists the
	// registry: the six baselines, the exhaustive "exact" reference (tiny
	// instances only), the default "portfolio", and anything added with
	// malsched.RegisterSolver.
	Solver string
	// Portfolio, when non-empty, runs these registered solvers
	// concurrently and keeps the best certified result: the smallest
	// makespan under the strongest certified lower bound any member
	// produced. Overrides Solver. See Solution.Solver for the winner.
	Portfolio []string
	// Trace captures the dual search's probe trajectory into
	// Solution.Trace — λ, breakpoint segment, accept/reject with reason,
	// certification and warm-synthesis flags, in the exact probe order.
	// Pure observation: every output is bit-identical traced or not, so
	// Trace is excluded from the memo fingerprint; a memo hit returns no
	// trace (there was no search). Only solvers with a dual search record
	// probes ("mrt"); others return an empty trace.
	Trace bool
	// Edges, when non-nil, is a successor-list precedence DAG over the
	// instance's tasks: Edges[i] lists the tasks that may start only after
	// task i completes. It is part of the memo fingerprint — a DAG never
	// aliases its independent-task projection. Only edge-aware solvers
	// accept it ("dag", "dag-crossover"; solver.SupportsEdges); any other
	// selection fails with solver.ErrEdgesUnsupported rather than silently
	// scheduling the independent-task projection. Build standard shapes
	// with malsched.ChainEdges/OutTreeEdges, validate untrusted ones with
	// malsched.ValidateEdges, and check results with
	// malsched.VerifyPrecedence. No reference to the lists outlives the
	// call (the memo keeps its own flattened copy), so a caller may reuse
	// their memory once it returns.
	Edges [][]int
}

// solverName resolves the registry name the options select (portfolio
// excluded); empty means the paper's algorithm.
func (o Options) solverName() string {
	if o.Solver != "" {
		return o.Solver
	}
	return solver.PaperSolverName
}

// WantsCompiled reports whether the options resolve to a solver that can
// consume compiled λ-breakpoint tables: the paper's dual search ("mrt"),
// the DAG solvers ("dag", "dag-crossover", whose crossover search resolves
// canonical allotments through the same tables), or a portfolio that
// includes one of them (the registered "portfolio" does). The engine and
// the scheduling service gate compilation on it so baseline and exact
// solves — which never probe — neither pay instance.Compile nor fill the
// compiled cache. Custom registered solvers are conservatively treated as
// non-consumers: one that runs the dual search internally still gets
// compiled tables, built once per search by core.Approximate itself.
func WantsCompiled(o Options) bool {
	if len(o.Portfolio) > 0 {
		for _, m := range o.Portfolio {
			if wantsCompiledName(m) {
				return true
			}
		}
		return false
	}
	name := o.solverName()
	return wantsCompiledName(name) || name == solver.PortfolioName
}

// wantsCompiledName reports whether a registry name identifies a built-in
// compiled-table consumer.
func wantsCompiledName(name string) bool {
	switch name {
	case solver.PaperSolverName, solver.DAGSolverName, solver.DAGCrossoverSolverName:
		return true
	}
	return false
}

// resolveSolver maps the options to a registered solver (or an ad-hoc
// portfolio over the named members).
func resolveSolver(o Options) (solver.Solver, error) {
	if len(o.Portfolio) > 0 {
		return solver.NewPortfolio(solver.PortfolioName, o.Portfolio)
	}
	name := o.solverName()
	s, ok := solver.Lookup(name)
	if !ok {
		return nil, solver.ErrUnknown(name)
	}
	return s, nil
}

// Solution is the outcome of scheduling one instance: the registry's
// result type, which the facade re-exports as malsched.Result. Only the
// engine sets its Trace.
type Solution = solver.Solution

// clone returns a Solution whose plan shares no memory with s's
// (schedule.Schedule.Clone: three allocations, one backing array for every
// processor set), so memo entries stay immutable when callers mutate
// returned plans.
func clone(s Solution) Solution {
	// Traces never enter or leave the memo: Options.Trace is excluded from
	// the fingerprint, so an untraced request may hit an entry a traced one
	// filled (and vice versa) — stripping here keeps the hit path unambiguous.
	s.Trace = nil
	if s.Plan != nil {
		s.Plan = s.Plan.Clone()
	}
	return s
}

// Solve schedules one instance through the full pipeline and returns the
// validated solution. It is the single implementation behind both
// malsched.Schedule and the engine's workers.
func Solve(in *instance.Instance, o Options) (Solution, error) {
	return solve(in, o, nil, nil, nil, nil)
}

// solve is Solve with the engine-only hooks: sc supplies reusable probe
// buffers (nil allocates per call), interrupt aborts the dual search early
// (nil never fires), ci supplies precompiled λ-breakpoint tables (nil
// lets the search compile its own), and warm runs the dual search in warm
// mode against the lineage seed (nil solves cold). Plan validation lives
// inside each registered solver, so portfolio members are checked
// individually.
func solve(in *instance.Instance, o Options, sc *core.Scratch, interrupt <-chan struct{}, ci *instance.Compiled, warm *core.WarmStart) (Solution, error) {
	sv, err := resolveSolver(o)
	if err != nil {
		return Solution{}, err
	}
	if o.Edges != nil && !solver.SupportsEdges(sv) {
		return Solution{}, fmt.Errorf("%w: %q (edge-aware: %q, %q)",
			solver.ErrEdgesUnsupported, sv.Name(), solver.DAGSolverName, solver.DAGCrossoverSolverName)
	}
	var tr *core.SolveTrace
	if o.Trace {
		tr = &core.SolveTrace{}
	}
	sol, err := sv.Solve(in, solver.Options{
		Eps:       o.Eps,
		Compact:   o.Compact,
		Compiled:  ci,
		Scratch:   sc,
		Interrupt: interrupt,
		WarmStart: warm,
		Trace:     tr,
		Edges:     o.Edges,
	})
	if err != nil {
		return Solution{}, err
	}
	sol.Trace = tr
	return sol, nil
}
