package precedence

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

func chainInstance(n, m int) *instance.Instance {
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Linear("c", 4, m)
	}
	return instance.MustNew("chain", m, tasks)
}

// scheduleOf runs the two-phase heuristic with default options.
func scheduleOf(g *Graph) (*schedule.Schedule, error) {
	r, err := g.Solve(Options{})
	return r.Schedule, err
}

func TestNewGraphValidation(t *testing.T) {
	in := chainInstance(3, 4)
	if _, err := NewGraph(in, [][]int{{1}}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := NewGraph(in, [][]int{{5}, nil, nil}); !errors.Is(err, ErrEdge) {
		t.Fatalf("want ErrEdge, got %v", err)
	}
	if _, err := NewGraph(in, [][]int{{1}, {2}, {0}}); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if _, err := NewGraph(in, [][]int{{1}, {2}, nil}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestTopologicalOrder(t *testing.T) {
	in := chainInstance(4, 2)
	g, err := NewGraph(in, [][]int{{1, 2}, {3}, {3}, nil})
	if err != nil {
		t.Fatal(err)
	}
	order := g.topo
	pos := make([]int, 4)
	for k, i := range order {
		pos[i] = k
	}
	for i, ss := range g.succ {
		for _, j := range ss {
			if pos[i] >= pos[j] {
				t.Fatalf("order violates edge %d->%d: %v", i, j, order)
			}
		}
	}
}

func TestCriticalPathHandChecked(t *testing.T) {
	in := chainInstance(4, 2)
	g, _ := NewGraph(in, [][]int{{1, 2}, {3}, {3}, nil})
	tail := make([]float64, 4)
	cp := g.criticalPathInto([]float64{1, 2, 3, 4}, tail)
	if cp != 8 { // 0 -> 2 -> 3
		t.Fatalf("cp = %v, want 8", cp)
	}
	if tail[0] != 8 || tail[1] != 6 || tail[2] != 7 || tail[3] != 4 {
		t.Fatalf("tails = %v", tail)
	}
}

func TestLowerBoundChain(t *testing.T) {
	// Chain of 3 linear tasks (work 4) on m=4: CP at full speed = 3·1 = 3;
	// area bound = 12/4 = 3. LB = 3, and the schedule achieves it.
	in := chainInstance(3, 4)
	g, err := NewGraph(in, ChainEdges(3))
	if err != nil {
		t.Fatal(err)
	}
	if lb := g.LowerBound(); math.Abs(lb-3) > 1e-9 {
		t.Fatalf("LB = %v, want 3", lb)
	}
	s, err := scheduleOf(g)
	if err != nil {
		t.Fatal(err)
	}
	if mk := s.Makespan(in); math.Abs(mk-3) > 1e-9 {
		t.Fatalf("chain of linear tasks should be scheduled optimally: %v", mk)
	}
}

func TestScheduleRespectsPrecedence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(14)
		n := 2 + rng.Intn(25)
		in := instance.Mixed(rng.Int63(), n, m)
		// Random DAG: edge i->j with probability p for i<j.
		succ := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					succ[i] = append(succ[i], j)
				}
			}
		}
		g, err := NewGraph(in, succ)
		if err != nil {
			t.Log(err)
			return false
		}
		s, err := scheduleOf(g)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := schedule.Validate(in, s, false); err != nil {
			t.Log(err)
			return false
		}
		// Precedence: every edge's successor starts at or after the
		// predecessor's completion.
		start := make([]float64, n)
		end := make([]float64, n)
		for _, p := range s.Placements {
			start[p.Task] = p.Start
			end[p.Task] = p.End(in)
		}
		for i, ss := range succ {
			for _, j := range ss {
				if start[j] < end[i]-1e-9 {
					t.Logf("edge %d->%d violated: start %v < end %v", i, j, start[j], end[i])
					return false
				}
			}
		}
		// Certified bound sanity.
		return s.Makespan(in) >= g.LowerBound()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Measured quality: on random DAGs the two-phase heuristic should stay
// within a small factor of the certified lower bound (no theorem is claimed
// — this documents the observed behaviour and guards regressions).
func TestScheduleRatioReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	worst := 0.0
	for iter := 0; iter < 80; iter++ {
		m := 4 + rng.Intn(28)
		n := 5 + rng.Intn(40)
		in := instance.Mixed(rng.Int63(), n, m)
		succ := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.1 {
					succ[i] = append(succ[i], j)
				}
			}
		}
		g, err := NewGraph(in, succ)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scheduleOf(g)
		if err != nil {
			t.Fatal(err)
		}
		if r := s.Makespan(in) / g.LowerBound(); r > worst {
			worst = r
		}
	}
	t.Logf("worst DAG ratio vs certified LB: %.3f", worst)
	// The certified DAG bound is weak (full-machine critical path + area
	// ignore precedence idling); observed worst ≈ 4.1, comparable to the
	// 3+√5 ≈ 5.24 guarantee of the later Lepère–Trystram–Woeginger
	// algorithm this future-work section previews. Guard regressions at 6.
	if worst > 6 {
		t.Fatalf("DAG heuristic degraded: worst ratio %.3f", worst)
	}
}

func TestOutTreeShape(t *testing.T) {
	in := chainInstance(7, 4)
	edges, err := OutTreeEdges(in.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 -> {1,2}, 1 -> {3,4}, 2 -> {5,6}.
	want := [][]int{{1, 2}, {3, 4}, {5, 6}, nil, nil, nil, nil}
	for i := range want {
		got := append([]int(nil), edges[i]...)
		sort.Ints(got)
		if len(got) != len(want[i]) {
			t.Fatalf("node %d successors %v, want %v", i, got, want[i])
		}
		for k := range got {
			if got[k] != want[i][k] {
				t.Fatalf("node %d successors %v, want %v", i, got, want[i])
			}
		}
	}
	if _, err := NewGraph(in, edges); err != nil {
		t.Fatal(err)
	}
	// arity < 1 is a typed error, not a panic.
	if _, err := OutTreeEdges(in.N(), 0); !errors.Is(err, ErrShape) {
		t.Fatalf("OutTreeEdges(0): want ErrShape, got %v", err)
	}
	if _, err := OutTreeEdges(5, -1); !errors.Is(err, ErrShape) {
		t.Fatalf("OutTreeEdges(-1): want ErrShape, got %v", err)
	}
}

func TestValidateEdgesTyped(t *testing.T) {
	if err := ValidateEdges(3, [][]int{{1}}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if err := ValidateEdges(3, [][]int{{3}, nil, nil}); !errors.Is(err, ErrEdge) {
		t.Fatalf("want ErrEdge, got %v", err)
	}
	if err := ValidateEdges(3, [][]int{{-1}, nil, nil}); !errors.Is(err, ErrEdge) {
		t.Fatalf("want ErrEdge for negative endpoint, got %v", err)
	}
	if err := ValidateEdges(3, [][]int{{0}, nil, nil}); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle for self-edge, got %v", err)
	}
	if err := ValidateEdges(3, [][]int{{1}, {2}, {0}}); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if err := ValidateEdges(3, [][]int{{1}, {2}, nil}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	if err := ValidateEdges(0, nil); err != nil {
		t.Fatalf("empty graph rejected: %v", err)
	}
}

// Graphs are immune to caller mutation: NewGraph copies the edges in. This
// is what makes the unexported fields an invariant rather than a
// convention.
func TestGraphEdgeIsolation(t *testing.T) {
	in := chainInstance(3, 4)
	succ := [][]int{{1}, {2}, nil}
	g, err := NewGraph(in, succ)
	if err != nil {
		t.Fatal(err)
	}
	succ[0][0] = 2
	succ[2] = []int{0} // would be a cycle if shared
	if g.succ[0][0] != 1 || g.succ[2] != nil {
		t.Fatalf("caller mutation reached the graph: %v", g.succ)
	}
}

func TestRandomEdgesAcyclic(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		n := 1 + int(seed%7)
		succ := RandomEdges(seed, n, 0.5)
		if err := ValidateEdges(n, succ); err != nil {
			t.Fatalf("RandomEdges(seed=%d) invalid: %v", seed, err)
		}
	}
}

func TestChainEdgesShape(t *testing.T) {
	succ := ChainEdges(3)
	want := [][]int{{1}, {2}, nil}
	for i := range want {
		if len(succ[i]) != len(want[i]) {
			t.Fatalf("ChainEdges(3) = %v", succ)
		}
		for k := range want[i] {
			if succ[i][k] != want[i][k] {
				t.Fatalf("ChainEdges(3) = %v", succ)
			}
		}
	}
	if one := ChainEdges(1); len(one) != 1 || one[0] != nil {
		t.Fatalf("ChainEdges(1) = %v", one)
	}
}

func TestSelectAllotmentTradesOff(t *testing.T) {
	// A chain wants narrow allotments (area is useless — CP rules), while
	// independent tasks want the area/CP balance. Verify the chain picks
	// wider allotments than one-processor-per-task only when it pays.
	m := 8
	in := chainInstance(4, m)
	g, err := NewGraph(in, ChainEdges(4))
	if err != nil {
		t.Fatal(err)
	}
	e := g.evalContext(Options{})
	alloc, l := e.selectAllotment(nil)
	// For a pure chain of linear tasks, CP(alloc) = Σ 4/p_i and the best
	// canonical family member is everyone on the full machine:
	// L = max(4·4·? /m, Σ4/8) … widest allotment minimises CP while area
	// stays 4 per task (linear): L = max(16/8, 2) = 2.
	if math.Abs(l-2) > 1e-9 {
		t.Fatalf("L = %v, want 2", l)
	}
	for i, a := range alloc {
		if a != m {
			t.Fatalf("task %d allotted %d, want full machine", i, a)
		}
	}
}
