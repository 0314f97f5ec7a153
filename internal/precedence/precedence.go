// Package precedence implements the paper's §5 "natural continuation":
// scheduling malleable tasks under precedence constraints. The paper
// announces this as future work (general graphs via the Prasanna–Musicus
// flow structure, and the tree structures of the ocean application); the
// guaranteed algorithms appeared later (Lepère–Trystram–Woeginger 2001,
// building on this paper's machinery). This package provides the
// infrastructure plus the natural two-phase heuristic:
//
//  1. allotment selection minimising L(a) = max(Σ w_i(a_i)/m, CP(a)) over
//     canonical allotments, where CP is the critical path — both terms
//     move monotonically in the deadline parameter, so the optimum over
//     that family is found by a crossover search (no optimality claim over
//     all allotments is made for DAGs, unlike the independent case);
//  2. precedence-respecting greedy list scheduling of the resulting rigid
//     DAG in critical-path order.
//
// The certified lower bounds max(Σ w_i(1)/m, CP at full-machine speed)
// make the measured ratios in the tests honest.
package precedence

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"malsched/internal/fphash"
	"malsched/internal/instance"
)

// Graph is a DAG of malleable tasks over an instance: succ[i] lists the
// tasks that may start only after task i completes. The fields are
// unexported on purpose — every Graph in existence went through NewGraph,
// so the scheduling entry points never see a cyclic or shape-mismatched
// graph and cannot panic on one. Construct with NewGraph, over successor
// lists from ChainEdges, OutTreeEdges, RandomEdges or the caller.
//
// NewGraph derives once what every solve on the graph needs: the
// topological order and predecessor counts (previously recomputed per
// candidate allotment), the deduplicated sorted candidate-deadline arrays
// the crossover search bisects, and the FNV-1a edge hash that keys the
// λ-segment cache (two DAGs over the same instance share one compiled
// table but must never share critical paths).
type Graph struct {
	in   *instance.Instance
	succ [][]int

	topo     []int     // topological order (Kahn's; deterministic)
	preds    []int     // predecessor count per task
	edgeHash uint64    // FNV-1a over the successor lists
	cands    []float64 // dedup-sorted candidate deadlines (every profile time)
	grid     []float64 // dedup-sorted λ grid (min and sequential time per task)
}

// Validation errors.
var (
	ErrShape = errors.New("precedence: successor list shape mismatch")
	ErrEdge  = errors.New("precedence: edge endpoint out of range")
	ErrCycle = errors.New("precedence: graph is cyclic")
)

// ValidateEdges checks a raw successor-list representation against a task
// count: exactly n lists, every endpoint in [0, n), and no cycle. It is the
// shared admission gate for every layer that accepts edges from outside
// (codec, server, engine) — none of them need to build a Graph to reject
// hostile input with a typed error.
func ValidateEdges(n int, succ [][]int) error {
	if err := checkEndpoints(n, succ); err != nil {
		return err
	}
	bp := kahnPool.Get().(*[]int)
	defer kahnPool.Put(bp)
	if cap(*bp) < 2*n {
		*bp = make([]int, 2*n)
	}
	buf := (*bp)[:2*n]
	indeg, order := buf[:n], buf[n:]
	clear(indeg) // kahn overwrites order before it reads it
	for _, ss := range succ {
		for _, j := range ss {
			indeg[j]++
		}
	}
	if !kahn(succ, indeg, order) {
		return ErrCycle
	}
	return nil
}

// kahnPool holds ValidateEdges' Kahn block (in-degrees and order, 2n ints):
// every DAG request crosses that gate at each layer it enters, so the block
// is recycled rather than allocated per call.
var kahnPool = sync.Pool{New: func() any { return new([]int) }}

// checkEndpoints is the shape half of edge admission: exactly n successor
// lists, every endpoint in [0, n).
func checkEndpoints(n int, succ [][]int) error {
	if len(succ) != n {
		return fmt.Errorf("%w: %d lists for %d tasks", ErrShape, len(succ), n)
	}
	for i, ss := range succ {
		for _, j := range ss {
			if j < 0 || j >= n {
				return fmt.Errorf("%w: %d -> %d", ErrEdge, i, j)
			}
		}
	}
	return nil
}

// kahn writes a topological order of the graph into order and reports
// whether one exists (false: the graph is cyclic). indeg holds every node's
// predecessor count on entry and is consumed; endpoints must already be
// bounds-checked. Kahn's order is its own queue — nodes are appended when
// their last predecessor is emitted and read back through a head index —
// so the two caller-supplied n-slices are all the memory the sort needs.
// Deterministic: sources enter in index order, successors in list order.
func kahn(succ [][]int, indeg, order []int) bool {
	tail := 0
	for i, d := range indeg {
		if d == 0 {
			order[tail] = i
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		for _, j := range succ[order[head]] {
			if indeg[j]--; indeg[j] == 0 {
				order[tail] = j
				tail++
			}
		}
	}
	return tail == len(order)
}

// copyEdges deep-copies a successor list so later caller mutation cannot
// break a validated Graph. All lists share one backing array, each capped
// at its own length so an append through one cannot reach its neighbour.
func copyEdges(succ [][]int) [][]int {
	total := 0
	for _, ss := range succ {
		total += len(ss)
	}
	out := make([][]int, len(succ))
	backing := make([]int, 0, total)
	for i, ss := range succ {
		if len(ss) > 0 {
			off := len(backing)
			backing = append(backing, ss...)
			out[i] = backing[off:len(backing):len(backing)]
		}
	}
	return out
}

// NewGraph validates the DAG (shape, edge bounds, acyclicity), captures a
// private copy of the edges and precomputes the per-graph solve state:
// topological order, predecessor counts, the deduplicated candidate-
// deadline arrays and the edge hash.
func NewGraph(in *instance.Instance, succ [][]int) (*Graph, error) {
	n := in.N()
	if err := checkEndpoints(n, succ); err != nil {
		return nil, err
	}
	// One block for the three per-node int arrays: the predecessor counts
	// the solves read, the copy of them Kahn's algorithm consumes, and the
	// order it emits.
	buf := make([]int, 3*n)
	g := &Graph{in: in, succ: copyEdges(succ), preds: buf[:n:n], topo: buf[2*n:]}
	h := fphash.New()
	h.Word(uint64(len(g.succ)))
	for _, ss := range g.succ {
		h.Word(uint64(len(ss)))
		for _, j := range ss {
			g.preds[j]++
			h.Word(uint64(j))
		}
	}
	g.edgeHash = h.Sum()
	indeg := buf[n : 2*n]
	copy(indeg, g.preds)
	if !kahn(g.succ, indeg, g.topo) {
		return nil, ErrCycle
	}

	// Candidate deadlines: every distinct profile time, sorted. Duplicate
	// times are collapsed once here instead of inflating every binary
	// search and λ-subsample downstream; the searches' answers depend only
	// on the distinct values, so dedup never changes the selected
	// crossover deadline. Read through Task.Time into one exactly-sized
	// slice — Task.Times would copy every profile first.
	total := 0
	for _, t := range in.Tasks {
		total += t.MaxProcs()
	}
	cands := make([]float64, 0, total)
	for _, t := range in.Tasks {
		for p := 1; p <= t.MaxProcs(); p++ {
			cands = append(cands, t.Time(p))
		}
	}
	sort.Float64s(cands)
	g.cands = dedupSorted(cands)

	grid := make([]float64, 0, 2*n)
	for _, t := range in.Tasks {
		grid = append(grid, t.MinTime(), t.SeqTime())
	}
	sort.Float64s(grid)
	g.grid = dedupSorted(grid)
	return g, nil
}

// dedupSorted collapses adjacent duplicates of a sorted slice in place.
func dedupSorted(s []float64) []float64 {
	if len(s) == 0 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// ChainEdges builds the successor lists of the linear order
// 0 → 1 → … → n−1.
func ChainEdges(n int) [][]int {
	succ := make([][]int, n)
	for i := 0; i+1 < n; i++ {
		succ[i] = []int{i + 1}
	}
	return succ
}

// OutTreeEdges builds the successor lists of a rooted tree in which task
// i > 0 depends on task (i−1)/arity — the root fans out, the shape of the
// ocean application's adaptive-mesh refinement hierarchy. An arity below 1
// is a caller error, reported as such rather than panicking.
func OutTreeEdges(n, arity int) ([][]int, error) {
	if arity < 1 {
		return nil, fmt.Errorf("%w: OutTree arity must be ≥ 1, got %d", ErrShape, arity)
	}
	succ := make([][]int, n)
	for i := 1; i < n; i++ {
		p := (i - 1) / arity
		succ[p] = append(succ[p], i)
	}
	return succ, nil
}

// RandomEdges builds a random DAG on n nodes: each forward pair i < j is an
// edge with probability p. Forward-only edges make the result acyclic by
// construction, so it is safe fuzz/property-test material.
func RandomEdges(seed int64, n int, p float64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	succ := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				succ[i] = append(succ[i], j)
			}
		}
	}
	return succ
}

// criticalPathInto returns the longest chain length when task i takes time
// times[i], and fills tail with each task's tail (longest remaining chain
// including i): the per-candidate unit of the solve hot path. It walks the
// construction-time topological order; tail needs no zeroing — the reverse
// walk writes every entry before any successor read.
func (g *Graph) criticalPathInto(times, tail []float64) float64 {
	cp := 0.0
	for k := len(g.topo) - 1; k >= 0; k-- {
		i := g.topo[k]
		best := 0.0
		for _, j := range g.succ[i] {
			if tail[j] > best {
				best = tail[j]
			}
		}
		tail[i] = times[i] + best
		if tail[i] > cp {
			cp = tail[i]
		}
	}
	return cp
}

// LowerBound returns the certified bound max(Σ w_i(1)/m, critical path at
// full-machine allotments): any schedule performs at least the minimal
// work, and no chain can beat its fastest execution.
func (g *Graph) LowerBound() float64 {
	// One buffer is both the times and the tails of the critical-path walk:
	// it reads times[i] once, just before it writes tail[i], and otherwise
	// only reads successors' tails, which are final by then.
	buf := make([]float64, g.in.N())
	for i, t := range g.in.Tasks {
		buf[i] = t.MinTime()
	}
	cp := g.criticalPathInto(buf, buf)
	return math.Max(g.in.MinTotalWork()/float64(g.in.M), cp)
}
