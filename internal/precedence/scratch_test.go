package precedence

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/task"
)

// scratchInstance draws n tasks on m processors with t(p) = w/p^α, w from a
// small set so rows share times. A rise row lifts its last time a quarter
// of task.Eps above the one before — a profile the validator admits but
// whose row is not monotone — and a flat row repeats its last time, so the
// row carries a duplicate.
func scratchInstance(rng *rand.Rand, n, m int, rise bool) *instance.Instance {
	tasks := make([]task.Task, n)
	for i := range tasks {
		w := float64(1 + rng.Intn(4))
		alpha := 0.2 + 0.7*rng.Float64()
		times := make([]float64, 1+rng.Intn(m))
		for p := range times {
			times[p] = w / math.Pow(float64(p+1), alpha)
		}
		switch k := len(times); {
		case k >= 2 && rise && rng.Intn(2) == 0:
			times[k-1] = times[k-2] * (1 + task.Eps/4)
		case k >= 2 && rng.Intn(3) == 0:
			times[k-1] = times[k-2]
		}
		tk, err := task.New(fmt.Sprintf("t%d", i), times)
		if err != nil {
			panic(err) // the rows above are admissible by construction
		}
		tasks[i] = tk
	}
	return instance.MustNew("scratch", m, tasks)
}

// scratchEdges draws a graph on n tasks: a chain, an out-tree or forward
// random edges, some lists empty rather than nil.
func scratchEdges(rng *rand.Rand, n int) [][]int {
	var succ [][]int
	switch rng.Intn(3) {
	case 0:
		succ = ChainEdges(n)
	case 1:
		succ, _ = OutTreeEdges(n, 1+rng.Intn(3))
	default:
		succ = RandomEdges(rng.Int63(), n, rng.Float64()/2)
	}
	for i := range succ {
		if succ[i] == nil && rng.Intn(2) == 0 {
			succ[i] = []int{}
		}
	}
	return succ
}

// sortedCands is the candidate axis as sort and dedup make it.
func sortedCands(in *instance.Instance) []float64 {
	var all []float64
	for _, t := range in.Tasks {
		all = append(all, t.Times()...)
	}
	sort.Float64s(all)
	return dedupSorted(all)
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameGraph holds a graph to one built from the same input, field by field
// and float by float; successor lists compare by content.
func sameGraph(got, want *Graph) error {
	switch {
	case got.in != want.in:
		return errors.New("instance differs")
	case len(got.succ) != len(want.succ):
		return fmt.Errorf("%d successor lists, want %d", len(got.succ), len(want.succ))
	case !slices.Equal(got.topo, want.topo):
		return fmt.Errorf("topo %v, want %v", got.topo, want.topo)
	case !slices.Equal(got.preds, want.preds):
		return fmt.Errorf("preds %v, want %v", got.preds, want.preds)
	case got.edgeHash != want.edgeHash:
		return fmt.Errorf("edge hash %#x, want %#x", got.edgeHash, want.edgeHash)
	case !sameBits(got.cands, want.cands):
		return fmt.Errorf("cands %v, want %v", got.cands, want.cands)
	case !sameBits(got.grid, want.grid):
		return fmt.Errorf("grid %v, want %v", got.grid, want.grid)
	case math.Float64bits(got.LowerBound()) != math.Float64bits(want.LowerBound()):
		return fmt.Errorf("lower bound %v, want %v", got.LowerBound(), want.LowerBound())
	}
	for i := range got.succ {
		if !slices.Equal(got.succ[i], want.succ[i]) {
			return fmt.Errorf("list %d: %v, want %v", i, got.succ[i], want.succ[i])
		}
	}
	return nil
}

// sameResult holds a solve to another of the same graph by answer and
// probes; CacheHits is a cost annotation that depends on the scratch.
func sameResult(got, want Result, gotErr, wantErr error) error {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, want %v", gotErr, wantErr)
	}
	if got.Probes != want.Probes {
		return fmt.Errorf("%d probes, want %d", got.Probes, want.Probes)
	}
	if !reflect.DeepEqual(got.Schedule, want.Schedule) {
		return fmt.Errorf("schedule %+v, want %+v", got.Schedule, want.Schedule)
	}
	return nil
}

// One scratch builds and solves a seeded sequence of graphs of varying and
// shrinking size, some over the previous instance's tables: each graph and
// each answer must equal what NewGraph and a fresh scratch give, float for
// float, so no buffer tail or cache entry of an earlier graph leaks into a
// later one. The candidate axis is also held to a fresh sort and dedup of
// every profile time.
func FuzzGraphOnScratchMatchesNewGraph(f *testing.F) {
	f.Add(int64(1), uint8(6), true)
	f.Add(int64(2), uint8(9), false)
	f.Add(int64(7), uint8(4), true)
	f.Add(int64(11), uint8(11), true)
	f.Fuzz(func(t *testing.T, seed int64, count uint8, rise bool) {
		rng := rand.New(rand.NewSource(seed))
		cs := core.NewScratch()
		ps := ScratchOf(cs)
		var in *instance.Instance
		var c *instance.Compiled
		n := 0
		for k := 0; k <= int(count%12); k++ {
			switch {
			case k > 0 && k%3 == 1: // a new graph over the same tables
			case k%3 == 2: // smaller than the last
				n = max(1, n/2)
				in = scratchInstance(rng, n, 1+rng.Intn(8), rise)
				c = instance.Compile(in)
			default:
				n = 1 + rng.Intn(24)
				in = scratchInstance(rng, n, 1+rng.Intn(8), rise)
				c = instance.Compile(in)
			}
			succ := scratchEdges(rng, n)
			want, err := NewGraph(in, succ)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ps.Graph(in, succ)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameGraph(got, want); err != nil {
				t.Fatalf("graph %d (n=%d): %v", k, n, err)
			}
			if ref := sortedCands(in); !sameBits(got.cands, ref) {
				t.Fatalf("graph %d: cands %v, sort gives %v", k, got.cands, ref)
			}
			for _, solve := range []func(*Graph, Options) (Result, error){(*Graph).Solve, (*Graph).SolveCrossover} {
				w, werr := solve(want, Options{Compiled: c, Scratch: core.NewScratch()})
				r, rerr := solve(got, Options{Compiled: c, Scratch: cs})
				if err := sameResult(r, w, rerr, werr); err != nil {
					t.Fatalf("graph %d (n=%d): %v", k, n, err)
				}
			}
			ps.Release()
		}
	})
}

// Release lets go of the request: no reference to its instance or edges
// stays on the scratch, and a graph's buffers past the cap leave with it.
func TestReleaseDropsTheRequest(t *testing.T) {
	sc := &Scratch{}
	small := instance.Mixed(1, 8, 4)
	if _, err := sc.Graph(small, ChainEdges(small.N())); err != nil {
		t.Fatal(err)
	}
	sc.Release()
	if sc.graph.in != nil || sc.graph.succ != nil || sc.graph.cands != nil {
		t.Fatal("the released scratch still holds the graph")
	}
	if cap(sc.graph.ints) == 0 || cap(sc.graph.floats) == 0 {
		t.Fatal("a small graph's buffers were not kept")
	}
	big := instance.Mixed(2, 2000, 64)
	if _, err := sc.Graph(big, ChainEdges(big.N())); err != nil {
		t.Fatal(err)
	}
	sc.Release()
	if sc.graph.ints != nil || sc.graph.floats != nil {
		t.Fatalf("a %d-word graph stayed on the scratch", cap(sc.graph.ints)+cap(sc.graph.floats))
	}
}

// Two graphs over one compiled table whose edge hashes meet — forged here,
// which the 64-bit hash alone could not tell apart — never share a critical
// path: each solve on one shared scratch gives what a fresh scratch gives,
// and the graph solved again keeps its entries.
func TestForgedEdgeHashSharesNoCriticalPath(t *testing.T) {
	in := instance.Mixed(5, 12, 8)
	c := instance.Compile(in)
	chain, err := NewGraph(in, ChainEdges(in.N()))
	if err != nil {
		t.Fatal(err)
	}
	free, err := NewGraph(in, make([][]int, in.N()))
	if err != nil {
		t.Fatal(err)
	}
	free.edgeHash = chain.edgeHash
	cs := core.NewScratch()
	for _, solve := range []struct {
		name string
		run  func(*Graph, Options) (Result, error)
	}{{"Solve", (*Graph).Solve}, {"SolveCrossover", (*Graph).SolveCrossover}} {
		for k, g := range []*Graph{chain, free, chain, free} {
			want, werr := solve.run(g, Options{Compiled: c, Scratch: core.NewScratch()})
			got, gerr := solve.run(g, Options{Compiled: c, Scratch: cs})
			if err := sameResult(got, want, gerr, werr); err != nil {
				t.Fatalf("%s, graph %d of the sequence: %v", solve.name, k, err)
			}
		}
	}
	chain.Solve(Options{Compiled: c, Scratch: cs})
	if again, _ := chain.Solve(Options{Compiled: c, Scratch: cs}); again.CacheHits != again.Probes {
		t.Fatalf("a repeat solve hit %d of %d probes", again.CacheHits, again.Probes)
	}
}

// A fired interrupt ends a DAG solve at its next poll. Fired before the
// solve, neither entry point evaluates a deadline; fired during the climb
// on a 1000-task out-tree, the climb ends within the visit it fired in,
// where it would otherwise ask thousands of questions.
func TestInterruptEndsTheSolve(t *testing.T) {
	in := instance.Mixed(1, 1000, 64)
	edges, err := OutTreeEdges(in.N(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(in, edges)
	if err != nil {
		t.Fatal(err)
	}
	c := instance.Compile(in)
	fired := make(chan struct{})
	close(fired)
	for name, solve := range map[string]func(*Graph, Options) (Result, error){
		"Solve": (*Graph).Solve, "SolveCrossover": (*Graph).SolveCrossover,
	} {
		r, err := solve(g, Options{Compiled: c, Interrupt: fired})
		if !errors.Is(err, core.ErrInterrupted) || r.Schedule != nil || r.Probes != 0 {
			t.Fatalf("%s under a fired interrupt: %d probes, %v", name, r.Probes, err)
		}
	}

	e := g.evalContext(Options{Compiled: c})
	best, mk := e.portfolio(nil)
	if best == nil {
		t.Fatal("no candidate")
	}
	interrupt := make(chan struct{})
	e.interrupt = interrupt
	asked := 0
	e.climb(best, mk, func(alloc []int, cutoff float64) (float64, bool) {
		if asked++; asked == 5 {
			close(interrupt)
		}
		return e.score(alloc, cutoff)
	})
	if !e.stopped || asked > 5+3 {
		t.Fatalf("the climb asked %d questions, stopped %v; a visit asks at most 4", asked, e.stopped)
	}
}
