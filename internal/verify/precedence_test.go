package verify

import (
	"errors"
	"math/rand"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// dagInstance is a 3-task chain-ready instance on m=2: every task runs in
// 2 units sequentially, 1 unit on both processors.
func dagInstance() *instance.Instance {
	tasks := []task.Task{
		task.MustNew("a", []float64{2, 1}),
		task.MustNew("b", []float64{2, 1}),
		task.MustNew("c", []float64{2, 1}),
	}
	return instance.MustNew("dag", 2, tasks)
}

// chainPlan schedules the 0→1→2 chain back to back at full width.
func chainPlan() *schedule.Schedule {
	return &schedule.Schedule{
		Algorithm: "test",
		Placements: []schedule.Placement{
			{Task: 0, Start: 0, Width: 2, First: 0},
			{Task: 1, Start: 1, Width: 2, First: 0},
			{Task: 2, Start: 2, Width: 2, First: 0},
		},
	}
}

func chainEdges3() [][]int { return [][]int{{1}, {2}, nil} }

func TestPrecedenceAcceptsValid(t *testing.T) {
	if err := Precedence(dagInstance(), chainEdges3(), chainPlan()); err != nil {
		t.Fatal(err)
	}
}

// Tripwire: a schedule that starts a successor before its predecessor ends
// must be rejected — this is the invariant the DAG layer exists to enforce.
func TestPrecedenceTripwire(t *testing.T) {
	plan := chainPlan()
	plan.Placements[1].Start = 0.5 // overlaps task 0's [0,1)
	err := Precedence(dagInstance(), chainEdges3(), plan)
	if !errors.Is(err, ErrPrecedenceViolated) {
		t.Fatalf("want ErrPrecedenceViolated, got %v", err)
	}
}

func TestPrecedenceHostileEdges(t *testing.T) {
	in, plan := dagInstance(), chainPlan()
	cases := []struct {
		name string
		succ [][]int
		err  error
	}{
		{"shape", [][]int{{1}}, precedence.ErrShape},
		{"out of range", [][]int{{7}, nil, nil}, precedence.ErrEdge},
		{"negative", [][]int{{-1}, nil, nil}, precedence.ErrEdge},
		{"cycle", [][]int{{1}, {2}, {0}}, precedence.ErrCycle},
		{"self edge", [][]int{{0}, nil, nil}, precedence.ErrCycle},
	}
	for _, tc := range cases {
		if err := Precedence(in, tc.succ, plan); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}
	if err := Precedence(nil, chainEdges3(), plan); !errors.Is(err, ErrNilInstance) {
		t.Errorf("nil instance: %v", err)
	}
	if err := Precedence(in, chainEdges3(), nil); !errors.Is(err, ErrNilPlan) {
		t.Errorf("nil plan: %v", err)
	}
}

func TestPrecedenceUnplacedEndpoint(t *testing.T) {
	plan := chainPlan()
	plan.Placements = plan.Placements[:2] // task 2 never placed
	err := Precedence(dagInstance(), chainEdges3(), plan)
	if !errors.Is(err, ErrEdgeUnplaced) {
		t.Fatalf("want ErrEdgeUnplaced, got %v", err)
	}
}

// The DAG heuristic's own output passes the check on random graphs — the
// producer and the verifier agree on the invariant.
func TestPrecedenceAcceptsHeuristicOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 25; iter++ {
		n := 2 + rng.Intn(8)
		m := 2 + rng.Intn(6)
		in := instance.Mixed(rng.Int63(), n, m)
		succ := precedence.RandomEdges(rng.Int63(), n, 0.3)
		g, err := precedence.NewGraph(in, succ)
		if err != nil {
			t.Fatal(err)
		}
		r, err := g.Solve(precedence.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := r.Schedule
		if err := Precedence(in, succ, s); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestTimelineDAGAcceptsSequential(t *testing.T) {
	jobs := []TimelineJob{
		{Task: task.MustNew("j0", []float64{4, 2}), Arrival: 0},
		{Task: task.MustNew("j1", []float64{3, 1.6}), Arrival: 0},
	}
	spans := []Span{
		{Job: 0, Width: 2, Procs: []int{0, 1}, Start: 0, Duration: 2, Noise: 1},
		{Job: 1, Width: 1, Procs: []int{0}, Start: 2, Duration: 3, Noise: 1},
	}
	if err := TimelineDAG(4, jobs, [][]int{{1}, nil}, spans); err != nil {
		t.Fatal(err)
	}
}

// Tripwire: the same timeline is fine without the edge and violating with
// it — a successor span starting before the predecessor's last span ends.
func TestTimelineDAGTripwire(t *testing.T) {
	jobs := tlJobs()
	spans := tlOK() // j1 starts at 1 while j0's last span ends at 3
	if err := Timeline(4, jobs, spans); err != nil {
		t.Fatal(err)
	}
	err := TimelineDAG(4, jobs, [][]int{{1}, nil}, spans)
	if !errors.Is(err, ErrPrecedenceViolated) {
		t.Fatalf("want ErrPrecedenceViolated, got %v", err)
	}
	// Hostile edges fail typed before the ordering check runs.
	if err := TimelineDAG(4, jobs, [][]int{{0}, nil}, spans); !errors.Is(err, precedence.ErrCycle) {
		t.Fatalf("self-edge: want ErrCycle, got %v", err)
	}
	if err := TimelineDAG(4, jobs, [][]int{{5}, nil}, spans); !errors.Is(err, precedence.ErrEdge) {
		t.Fatalf("out-of-range: want ErrEdge, got %v", err)
	}
}

// BenchmarkValidateDAGPlan times schedule.Validate, through Plan, on
// list-scheduled plans of the benchmark's serve-dag shape (16 tasks, 8
// processors, random edges at density 0.3) — the check every DAG response
// runs twice.
func BenchmarkValidateDAGPlan(b *testing.B) {
	const plans = 16
	ins := make([]*instance.Instance, plans)
	certs := make([]Certified, plans)
	for k := range certs {
		in := instance.Mixed(int64(k+1), 16, 8)
		g, err := precedence.NewGraph(in, precedence.RandomEdges(int64(k+1), in.N(), 0.3))
		if err != nil {
			b.Fatal(err)
		}
		r, err := g.Solve(precedence.Options{})
		if err != nil {
			b.Fatal(err)
		}
		plan := r.Schedule
		ins[k], certs[k] = in, Certified{Plan: plan, Makespan: plan.Makespan(in), LowerBound: g.LowerBound()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Plan(ins[i%plans], certs[i%plans], false); err != nil {
			b.Fatal(err)
		}
	}
}
