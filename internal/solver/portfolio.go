package solver

import (
	"errors"
	"fmt"
	"sync"

	"malsched/internal/core"
	"malsched/internal/exact"
	"malsched/internal/instance"
	"malsched/internal/verify"
)

// PortfolioName is the registry name of the default portfolio.
const PortfolioName = "portfolio"

// Portfolio runs a configurable set of member solvers concurrently on the
// same instance and returns the best certified result: the plan with the
// smallest makespan (ties broken by member order, so the outcome is
// deterministic regardless of completion order) under the strongest lower
// bound any member certified — the max of certified bounds is itself
// certified, so the reported ratio can only tighten.
//
// Members that are not applicable to the instance are skipped: today that
// is the exact solver beyond its size limits (exact.ErrTooLarge). Any other
// member error fails softly too — the portfolio only errors when every
// member does, returning the first failure by member order.
type Portfolio struct {
	name    string
	members []string
}

// NewPortfolio builds a portfolio over the named member solvers, resolved
// at Solve time so registration order does not matter. The member list must
// be non-empty and must not include a portfolio (no recursive fan-out).
func NewPortfolio(name string, members []string) (*Portfolio, error) {
	if len(members) == 0 {
		return nil, errors.New("solver: portfolio needs at least one member")
	}
	for _, m := range members {
		if m == PortfolioName || m == name {
			return nil, fmt.Errorf("solver: portfolio member %q would recurse", m)
		}
	}
	return &Portfolio{name: name, members: append([]string(nil), members...)}, nil
}

// defaultPortfolio is the registered "portfolio": the paper's algorithm
// against the strongest contiguous baseline, the sequential straw man and
// the exact reference (auto-skipped beyond tiny instances).
func defaultPortfolio() *Portfolio {
	p, err := NewPortfolio(PortfolioName, []string{PaperSolverName, "twy-ffdh", "seq-lpt", ExactSolverName})
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Solver.
func (p *Portfolio) Name() string { return p.name }

// Solve implements Solver: every member runs concurrently on its own
// scratch (only member 0 inherits the caller's), results are merged
// deterministically by member order.
func (p *Portfolio) Solve(in *instance.Instance, o Options) (Solution, error) {
	solvers := make([]Solver, len(p.members))
	for i, name := range p.members {
		s, ok := Lookup(name)
		if !ok {
			return Solution{}, ErrUnknown(name)
		}
		solvers[i] = s
	}

	sols := make([]Solution, len(solvers))
	errs := make([]error, len(solvers))
	var wg sync.WaitGroup
	wg.Add(len(solvers))
	warmGiven := false
	for i, s := range solvers {
		mo := o
		if i != 0 {
			mo.Scratch = nil // one owner per scratch; others allocate/pool
		}
		if mo.WarmStart != nil {
			// One owner per seed: the dual-search member updates it in
			// place, so concurrent members must not share the pointer.
			if p.members[i] == PaperSolverName && !warmGiven {
				warmGiven = true
			} else {
				mo.WarmStart = nil
			}
		}
		go func(i int, s Solver, mo Options) {
			defer wg.Done()
			sols[i], errs[i] = s.Solve(in, mo)
		}(i, s, mo)
	}
	wg.Wait()

	var (
		best     Solution
		found    bool
		firstErr error
		maxLB    float64
		probes   int
		synth    int
	)
	for i := range solvers {
		if errs[i] != nil {
			// An interrupted member means the whole solve is being aborted
			// (the engine's per-instance timeout): propagate instead of
			// degrading to a slower member's result — a timing-dependent
			// partial answer must never reach the caller (or the memo).
			if errors.Is(errs[i], core.ErrInterrupted) {
				return Solution{}, errs[i]
			}
			if firstErr == nil && !errors.Is(errs[i], exact.ErrTooLarge) {
				firstErr = errs[i]
			}
			continue
		}
		sol := sols[i]
		probes += sol.Probes
		synth += sol.Synthesized
		if sol.LowerBound > maxLB {
			maxLB = sol.LowerBound
		}
		if !found || sol.Makespan < best.Makespan {
			best = sol
			found = true
		}
	}
	if !found {
		if firstErr != nil {
			return Solution{}, fmt.Errorf("malsched: every portfolio member failed: %w", firstErr)
		}
		return Solution{}, fmt.Errorf("malsched: no applicable portfolio member for instance %q", in.Name)
	}
	best.LowerBound = maxLB
	best.Probes = probes
	best.Synthesized = synth
	// Members verified their own plans, but the merge built a new claim —
	// the winning plan under the strongest member bound — so certify the
	// combination too before it reaches the engine (or the memo).
	c := verify.Certified{Plan: best.Plan, Makespan: best.Makespan, LowerBound: best.LowerBound}
	if err := verify.Plan(in, c, false); err != nil {
		return Solution{}, fmt.Errorf("malsched: portfolio merge produced uncertified result: %w", err)
	}
	return best, nil
}
