package engine

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/schedule"
	"malsched/internal/solver"
	"malsched/internal/task"
	"malsched/internal/verify"
)

func dagEngineInstance(n, m int) *instance.Instance {
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Linear("t", 4, m)
	}
	return instance.MustNew("dag-engine", m, tasks)
}

// The fingerprint must separate a DAG from its independent-task projection
// and from any differently-wired DAG over the same profiles — otherwise the
// memo would serve a chain's plan for a fork, silently violating edges.
func TestFingerprintHashesEdges(t *testing.T) {
	in := dagEngineInstance(3, 4)
	base := Options{Solver: solver.DAGSolverName}
	withChain := base
	withChain.Edges = precedence.ChainEdges(3)
	withEmpty := base
	withEmpty.Edges = make([][]int, 3)
	withFork := base
	withFork.Edges = [][]int{{1, 2}, nil, nil}

	fp := func(o Options) uint64 { return Fingerprint(in, o) }
	if fp(base) == fp(withChain) {
		t.Fatal("chain DAG aliases nil-edge projection")
	}
	if fp(base) == fp(withEmpty) {
		t.Fatal("explicit empty DAG aliases nil edges")
	}
	if fp(withChain) == fp(withFork) {
		t.Fatal("chain aliases fork")
	}
	if fp(withChain) != fp(withChain) {
		t.Fatal("fingerprint is not deterministic")
	}
}

// End to end through the engine: DAG solve dispatches, memoises under the
// edge-aware key, and a projection solve right after does not see the DAG's
// memo entry (and vice versa).
func TestEngineDAGDispatchAndMemoIsolation(t *testing.T) {
	e := New(Config{})
	in := dagEngineInstance(4, 4)
	chain := Options{Solver: solver.DAGSolverName, Edges: precedence.ChainEdges(4)}
	proj := Options{Solver: solver.DAGSolverName}

	out := e.ScheduleWith(in, chain, 0)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	// Chain of four work-4 linear tasks on m=4: critical path at full speed
	// is 4; the projection packs all four side by side in 4 time units too,
	// but sequentially each takes 4 — distinguish via the memo instead.
	again := e.ScheduleWith(in, chain, 0)
	if again.Err != nil || !again.FromMemo {
		t.Fatalf("repeat DAG solve should hit the memo: err=%v fromMemo=%v", again.Err, again.FromMemo)
	}
	pout := e.ScheduleWith(in, proj, 0)
	if pout.Err != nil {
		t.Fatal(pout.Err)
	}
	if pout.FromMemo {
		t.Fatal("projection solve aliased the DAG's memo entry")
	}
}

// A DAG plan's processor sets share one backing array per copy, each set a
// capacity-capped window of it. An append through one set of a memo hit must
// reach neither its neighbour nor the memo's copy, and a caller rewriting a
// returned plan in place must leave the memo entry verifying.
func TestMemoHitProcSetsIsolated(t *testing.T) {
	in := instance.Mixed(9, 16, 8)
	edges := precedence.RandomEdges(9, in.N(), 0.3)
	o := Options{Solver: solver.DAGSolverName, Edges: edges}
	e := New(Config{Workers: 1})
	first := e.ScheduleWith(in, o, 0)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	hit := e.ScheduleWith(in, o, 0)
	if hit.Err != nil || !hit.FromMemo {
		t.Fatalf("repeat should hit the memo: err=%v fromMemo=%v", hit.Err, hit.FromMemo)
	}
	pl := hit.Solution.Plan.Placements
	k := slices.IndexFunc(pl[:len(pl)-1], func(p schedule.Placement) bool { return p.ProcSet != nil })
	if k < 0 || pl[k+1].ProcSet == nil {
		t.Fatal("the DAG plan has no two neighbouring processor sets to test")
	}
	neighbour := slices.Clone(pl[k+1].ProcSet)
	pl[k].ProcSet = append(pl[k].ProcSet, -1, -2, -3)
	if !slices.Equal(pl[k+1].ProcSet, neighbour) {
		t.Fatalf("append through placement %d reached its neighbour: %v, was %v", k, pl[k+1].ProcSet, neighbour)
	}
	next := e.ScheduleWith(in, o, 0)
	if next.Err != nil || !next.FromMemo || !sameSolution(first.Solution, next.Solution) {
		t.Fatalf("append through a hit's processor set changed the next hit (err=%v)", next.Err)
	}

	for i := range next.Solution.Plan.Placements {
		p := &next.Solution.Plan.Placements[i]
		clear(p.ProcSet)
		p.Start = -1
	}
	again := e.ScheduleWith(in, o, 0)
	if again.Err != nil || !sameSolution(first.Solution, again.Solution) {
		t.Fatalf("a caller's in-place rewrite reached the memo (err=%v)", again.Err)
	}
	cert := verify.Certified{Plan: again.Solution.Plan, Makespan: again.Solution.Makespan, LowerBound: again.Solution.LowerBound}
	if err := verify.Plan(in, cert, false); err != nil {
		t.Fatalf("memo entry no longer verifies: %v", err)
	}
	if err := verify.Precedence(in, edges, again.Solution.Plan); err != nil {
		t.Fatalf("memo entry no longer verifies: %v", err)
	}
}

func TestEngineRejectsEdgesOnEdgeBlindSolver(t *testing.T) {
	e := New(Config{})
	in := dagEngineInstance(3, 4)
	for _, o := range []Options{
		{Solver: solver.PaperSolverName, Edges: precedence.ChainEdges(3)},
		{Edges: precedence.ChainEdges(3)}, // default solver is mrt
		{Portfolio: []string{"mrt", "twy-ffdh"}, Edges: precedence.ChainEdges(3)},
	} {
		out := e.ScheduleWith(in, o, 0)
		if !errors.Is(out.Err, solver.ErrEdgesUnsupported) {
			t.Fatalf("options %+v: want ErrEdgesUnsupported, got %v", o, out.Err)
		}
	}
}

// dagWarmChain builds a DAG replanning lineage: the parent instance
// followed by residuals that keep every task (so a fixed edge set stays
// valid) while remaining work drifts a little each step — the
// progress-update shape of online DAG replanning.
func dagWarmChain(t *testing.T, seed int64, n, steps int) []*instance.Compiled {
	t.Helper()
	parent := instance.Mixed(seed, n, 6)
	pc := instance.Compile(parent)
	rng := rand.New(rand.NewSource(seed * 6151))
	chain := []*instance.Compiled{pc}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	for s := 0; s < steps; s++ {
		rem := make([]float64, n)
		for i := range rem {
			rem[i] = 0.9 + 0.1*rng.Float64()
		}
		_, rc, err := instance.ResidualCompiled(pc, "dag-resid", 6, ids, rem)
		if err != nil {
			t.Fatalf("residual step %d: %v", s, err)
		}
		chain = append(chain, rc)
	}
	return chain
}

// TestScheduleWarmDAGMatchesCold extends the warm bit-identity bar to the
// DAG solvers: every step of a DAG replanning lineage must solve warm to the exact cold solution, and the lineage's
// crossover seeds must make the warm side strictly cheaper in fresh
// evaluations overall.
func TestScheduleWarmDAGMatchesCold(t *testing.T) {
	const n = 16
	edges := precedence.RandomEdges(5, n, 0.3)
	for _, name := range []string{solver.DAGSolverName, solver.DAGCrossoverSolverName} {
		chain := dagWarmChain(t, 17, n, 6)
		warmE := New(Config{Workers: 1, MemoCapacity: -1})
		coldE := New(Config{Workers: 1, MemoCapacity: -1})
		ws := warmE.NewWarmState(9)
		o := Options{Solver: name, Edges: edges}

		warmProbes, coldProbes := 0, 0
		for i, c := range chain {
			in := c.Instance()
			w := warmE.ScheduleWarm(in, c, o, 0, ws)
			if w.Err != nil {
				t.Fatalf("%s step %d warm: %v", name, i, w.Err)
			}
			cold := coldE.ScheduleCompiled(in, c, o, 0, Fingerprint(in, o))
			if cold.Err != nil {
				t.Fatalf("%s step %d cold: %v", name, i, cold.Err)
			}
			if !sameSolution(w.Solution, cold.Solution) {
				t.Fatalf("%s step %d: warm solution differs from cold:\nwarm: mk=%v %s\ncold: mk=%v %s",
					name, i, w.Makespan, w.Branch, cold.Makespan, cold.Branch)
			}
			// Probes counts search decisions (a seeded search may pay a
			// couple extra verifying its guess); the lineage's win is in
			// fresh derivations — decisions the pinned scratch's segment
			// cache resolved for free show up in Synthesized.
			warmProbes += w.Probes - w.Synthesized
			coldProbes += cold.Probes - cold.Synthesized
		}
		if name == solver.DAGCrossoverSolverName && warmProbes >= coldProbes {
			t.Fatalf("%s: warm lineage paid %d fresh evaluations, cold %d — seeds never helped",
				name, warmProbes, coldProbes)
		}
		if warmProbes > coldProbes {
			t.Fatalf("%s: warm lineage paid %d fresh evaluations, cold %d — seeds made it worse",
				name, warmProbes, coldProbes)
		}
		if ws.Solves() != uint64(len(chain)) {
			t.Fatalf("%s: state recorded %d solves, want %d", name, ws.Solves(), len(chain))
		}
	}
}

// Hostile edge structures are admission failures — typed ErrBadInstance,
// never a panic, and never a solver invocation.
func TestEngineRejectsHostileEdgesTyped(t *testing.T) {
	e := New(Config{})
	in := dagEngineInstance(3, 4)
	cases := []struct {
		name  string
		edges [][]int
		inner error
	}{
		{"shape", [][]int{{1}}, precedence.ErrShape},
		{"range", [][]int{{7}, nil, nil}, precedence.ErrEdge},
		{"negative", [][]int{{-2}, nil, nil}, precedence.ErrEdge},
		{"cycle", [][]int{{1}, {2}, {0}}, precedence.ErrCycle},
		{"self", [][]int{{0}, nil, nil}, precedence.ErrCycle},
	}
	for _, tc := range cases {
		out := e.ScheduleWith(in, Options{Solver: solver.DAGSolverName, Edges: tc.edges}, 0)
		if !errors.Is(out.Err, ErrBadInstance) || !errors.Is(out.Err, tc.inner) {
			t.Errorf("%s: got %v, want ErrBadInstance wrapping %v", tc.name, out.Err, tc.inner)
		}
	}
	if st := e.Stats(); st.Panics != 0 {
		t.Fatalf("hostile edges caused %d recovered panics", st.Panics)
	}
}
