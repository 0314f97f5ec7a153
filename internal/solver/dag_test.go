package solver

import (
	"errors"
	"math/rand"
	"testing"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/task"
	"malsched/internal/verify"
)

func dagTestInstance(n, m int) *instance.Instance {
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Linear("t", 4, m)
	}
	return instance.MustNew("dag-test", m, tasks)
}

func TestDAGSolversAreEdgeAware(t *testing.T) {
	for _, name := range []string{DAGSolverName, DAGCrossoverSolverName} {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if !SupportsEdges(s) {
			t.Fatalf("%s should support edges", name)
		}
	}
	for _, name := range []string{PaperSolverName, ExactSolverName, "twy-ffdh", PortfolioName} {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if SupportsEdges(s) {
			t.Fatalf("%s should not claim edge support", name)
		}
	}
	// Func-adapted external solvers are conservatively edge-blind.
	f := Func{SolverName: "ext", Fn: nil}
	if SupportsEdges(f) {
		t.Fatal("Func should not claim edge support")
	}
}

func TestDAGSolverRespectsEdges(t *testing.T) {
	in := dagTestInstance(4, 4)
	succ := precedence.ChainEdges(4)
	for _, name := range []string{DAGSolverName, DAGCrossoverSolverName} {
		s, _ := Lookup(name)
		sol, err := s.Solve(in, Options{Edges: succ})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.Precedence(in, succ, sol.Plan); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Solver != name {
			t.Fatalf("%s: solver field %q", name, sol.Solver)
		}
		// A 4-chain of work-4 linear tasks cannot beat the sequential
		// dependency structure: every schedule is at least the full-speed
		// critical path of 4·(4/4) = 4.
		if sol.Makespan < 4-1e-9 {
			t.Fatalf("%s: makespan %v beats the chain's critical path", name, sol.Makespan)
		}
		if sol.LowerBound < 4-1e-9 {
			t.Fatalf("%s: certified LB %v below chain critical path", name, sol.LowerBound)
		}
	}
}

func TestDAGSolverNilEdgesIsEmptyDAG(t *testing.T) {
	in := dagTestInstance(3, 4)
	s, _ := Lookup(DAGSolverName)
	sol, err := s.Solve(in, Options{})
	if err != nil {
		t.Fatalf("nil edges should solve as independent tasks: %v", err)
	}
	if err := verify.Plan(in, verify.Certified{Plan: sol.Plan, Makespan: sol.Makespan, LowerBound: sol.LowerBound}, false); err != nil {
		t.Fatal(err)
	}
}

func TestDAGSolverHostileEdgesTyped(t *testing.T) {
	in := dagTestInstance(3, 4)
	s, _ := Lookup(DAGSolverName)
	cases := []struct {
		name string
		succ [][]int
		err  error
	}{
		{"shape", [][]int{{1}}, precedence.ErrShape},
		{"range", [][]int{{9}, nil, nil}, precedence.ErrEdge},
		{"cycle", [][]int{{1}, {2}, {0}}, precedence.ErrCycle},
	}
	for _, tc := range cases {
		if _, err := s.Solve(in, Options{Edges: tc.succ}); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}
}

// Differential: on random tiny DAGs, both DAG solvers certify, respect
// precedence, and "dag" (with refinement and the candidate portfolio) never
// loses to the bare crossover pass it subsumes.
func TestDAGSolversDifferentialTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dag, _ := Lookup(DAGSolverName)
	cross, _ := Lookup(DAGCrossoverSolverName)
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(6)
		m := 2 + rng.Intn(6)
		in := instance.Mixed(rng.Int63(), n, m)
		succ := precedence.RandomEdges(rng.Int63(), n, 0.4)
		a, err := dag.Solve(in, Options{Edges: succ})
		if err != nil {
			t.Fatal(err)
		}
		b, err := cross.Solve(in, Options{Edges: succ})
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan > b.Makespan+1e-9 {
			t.Fatalf("iter %d: refined dag (%v) lost to crossover (%v)", iter, a.Makespan, b.Makespan)
		}
		if a.LowerBound != b.LowerBound {
			t.Fatalf("iter %d: certified LBs disagree: %v vs %v", iter, a.LowerBound, b.LowerBound)
		}
	}
}

// Both DAG solvers obey Options.Interrupt: fired before the solve, a
// 1000-task out-tree returns core.ErrInterrupted without a schedule instead
// of running its whole climb.
func TestDAGSolverObeysInterrupt(t *testing.T) {
	in := instance.Mixed(1, 1000, 64)
	edges, err := precedence.OutTreeEdges(in.N(), 3)
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{})
	close(fired)
	for _, name := range []string{DAGSolverName, DAGCrossoverSolverName} {
		s, _ := Lookup(name)
		sol, err := s.Solve(in, Options{Edges: edges, Scratch: core.NewScratch(), Interrupt: fired})
		if !errors.Is(err, core.ErrInterrupted) || sol.Plan != nil {
			t.Fatalf("%s under a fired interrupt: %v", name, err)
		}
	}
}
