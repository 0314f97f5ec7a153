package solver

import (
	"errors"
	"fmt"

	"malsched/internal/baseline"
	"malsched/internal/core"
	"malsched/internal/exact"
	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/verify"
)

// PaperSolverName is the registry name of the paper's √3-approximation.
const PaperSolverName = "mrt"

// ExactSolverName is the registry name of the exhaustive-search reference.
const ExactSolverName = "exact"

func init() {
	Register(paperSolver{})
	for _, alg := range baseline.All() {
		Register(baselineSolver{alg})
	}
	Register(exactSolver{})
	Register(defaultPortfolio())
}

// paperSolver is the paper's algorithm: the dual-approximation dichotomic
// search of internal/core.
type paperSolver struct{}

func (paperSolver) Name() string { return PaperSolverName }

func (paperSolver) Solve(in *instance.Instance, o Options) (Solution, error) {
	res, err := core.Approximate(in, core.Options{
		Eps:       o.Eps,
		Compact:   o.Compact,
		Compiled:  o.Compiled,
		Scratch:   o.Scratch,
		Interrupt: o.Interrupt,
		WarmStart: o.WarmStart,
		Trace:     o.Trace,
	})
	if err != nil {
		return Solution{}, err
	}
	c := verify.Certified{Plan: res.Schedule, Makespan: res.Makespan, LowerBound: res.LowerBound}
	if err := verify.Plan(in, c, true); err != nil {
		return Solution{}, fmt.Errorf("malsched: internal error, produced uncertified schedule: %w", err)
	}
	return Solution{
		Plan:        res.Schedule,
		Makespan:    res.Makespan,
		LowerBound:  res.LowerBound,
		Branch:      res.Branch,
		Solver:      PaperSolverName,
		Probes:      res.Probes,
		Synthesized: res.Synthesized,
	}, nil
}

// baselineSolver adapts one internal/baseline algorithm. The certified
// lower bound is the squashed-area dual bound, computed independently of
// the baseline itself.
type baselineSolver struct {
	alg baseline.Algorithm
}

func (b baselineSolver) Name() string { return b.alg.Name }

func (b baselineSolver) Solve(in *instance.Instance, o Options) (Solution, error) {
	s, err := b.alg.Run(in)
	if err != nil {
		return Solution{}, err
	}
	mk := s.Makespan(in)
	lb := lowerbound.SquashedArea(in)
	// twy-list is inherently non-contiguous; every other baseline places
	// contiguous blocks.
	c := verify.Certified{Plan: s, Makespan: mk, LowerBound: lb}
	if err := verify.Plan(in, c, b.alg.Name != "twy-list"); err != nil {
		return Solution{}, fmt.Errorf("malsched: baseline %s produced uncertified schedule: %w", b.alg.Name, err)
	}
	return Solution{
		Plan:       s,
		Makespan:   mk,
		LowerBound: lb,
		Branch:     b.alg.Name,
		Solver:     b.alg.Name,
	}, nil
}

// exactSolver adapts the exhaustive search. It is auto-gated: instances
// beyond internal/exact's limits fail with exact.ErrTooLarge (the portfolio
// treats that as "member not applicable" rather than a failure).
type exactSolver struct{}

func (exactSolver) Name() string { return ExactSolverName }

func (exactSolver) Solve(in *instance.Instance, o Options) (Solution, error) {
	s, opt, err := exact.SolveScheduleInterruptible(in, o.Interrupt)
	if err != nil {
		if errors.Is(err, exact.ErrInterrupted) {
			// Map onto the search's interrupt error so the engine's
			// timeout accounting treats the exact solver like the dual
			// search.
			return Solution{}, fmt.Errorf("%w (exact solver, instance %q)", core.ErrInterrupted, in.Name)
		}
		return Solution{}, err
	}
	if err := verify.Plan(in, verify.Certified{Plan: s, Makespan: opt, LowerBound: opt}, false); err != nil {
		return Solution{}, fmt.Errorf("malsched: exact solver produced uncertified schedule: %w", err)
	}
	// The witness is optimal over non-contiguous schedules, so its own
	// makespan is a certified lower bound for the measured adversary.
	return Solution{
		Plan:       s,
		Makespan:   opt,
		LowerBound: opt,
		Branch:     "exact",
		Solver:     ExactSolverName,
	}, nil
}

// Func adapts a plain function into a registered solver; the facade's
// RegisterSolver uses it for external solvers. Plans are validated
// non-contiguously (external solvers may place explicit processor sets).
type Func struct {
	// SolverName is the registry key.
	SolverName string
	// Fn produces the solution; Plan and LowerBound are mandatory.
	Fn func(in *instance.Instance, o Options) (Solution, error)
}

// Name implements Solver.
func (f Func) Name() string { return f.SolverName }

// Solve implements Solver, validating the returned plan.
func (f Func) Solve(in *instance.Instance, o Options) (Solution, error) {
	sol, err := f.Fn(in, o)
	if err != nil {
		return Solution{}, err
	}
	c := verify.Certified{Plan: sol.Plan, Makespan: sol.Makespan, LowerBound: sol.LowerBound}
	if err := verify.Plan(in, c, false); err != nil {
		return Solution{}, fmt.Errorf("malsched: solver %s produced uncertified schedule: %w", f.SolverName, err)
	}
	if sol.Solver == "" {
		sol.Solver = f.SolverName
	}
	return sol, nil
}
