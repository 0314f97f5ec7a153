package solver

import (
	"fmt"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/verify"
)

// DAGSolverName is the registry name of the precedence-constrained
// two-phase heuristic (crossover allotment candidates + longest-tail list
// scheduling + hill-climb refinement; internal/precedence.Graph.Schedule).
const DAGSolverName = "dag"

// DAGCrossoverSolverName is the registry name of the plain crossover
// two-phase algorithm (SelectAllotment's L-minimiser, list-scheduled, no
// refinement) — the reference the benchmarks compare "dag" against.
const DAGCrossoverSolverName = "dag-crossover"

func init() {
	Register(dagSolver{name: DAGSolverName, refine: true})
	Register(dagSolver{name: DAGCrossoverSolverName, refine: false})
}

// dagSolver adapts internal/precedence to the registry. It is the only
// built-in family that reads Options.Edges; nil edges mean the empty DAG,
// so the solver stays usable on independent instances (where its greedy
// list scheduling is simply a weaker baseline than "mrt"). Unlike the
// independent-case solvers it claims no approximation guarantee — the
// crossover search is optimal only over canonical allotments, and on
// general DAGs no bound is proven here (see package precedence). The
// certified lower bound max(Σ w_i(1)/m, CP at full speed) keeps reported
// ratios honest regardless.
type dagSolver struct {
	name   string
	refine bool
}

func (d dagSolver) Name() string { return d.name }

// EdgeAware opts the solver into Options.Edges.
func (d dagSolver) EdgeAware() bool { return true }

func (d dagSolver) Solve(in *instance.Instance, o Options) (Solution, error) {
	succ := o.Edges
	if succ == nil {
		succ = make([][]int, in.N())
	}
	g, err := precedence.NewGraph(in, succ)
	if err != nil {
		return Solution{}, err
	}
	po := precedence.Options{
		Compiled: o.Compiled,
		Scratch:  o.Scratch,
		Warm:     o.WarmStart,
	}
	var r precedence.Result
	if d.refine {
		r, err = g.Solve(po)
	} else {
		r, err = g.SolveCrossover(po)
	}
	if err != nil {
		return Solution{}, err
	}
	plan := r.Schedule
	mk := plan.Makespan(in)
	lb := g.LowerBound()
	c := verify.Certified{Plan: plan, Makespan: mk, LowerBound: lb}
	if err := verify.Plan(in, c, false); err != nil {
		return Solution{}, fmt.Errorf("malsched: DAG solver %s produced uncertified schedule: %w", d.name, err)
	}
	if err := verify.Precedence(in, succ, plan); err != nil {
		return Solution{}, fmt.Errorf("malsched: DAG solver %s violated precedence: %w", d.name, err)
	}
	return Solution{
		Plan:        plan,
		Makespan:    mk,
		LowerBound:  lb,
		Branch:      plan.Algorithm,
		Solver:      d.name,
		Probes:      r.Probes,
		Synthesized: r.CacheHits,
	}, nil
}
