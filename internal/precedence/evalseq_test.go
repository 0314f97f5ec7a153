package precedence

import (
	"sort"
	"testing"

	"malsched/internal/core"
	"malsched/internal/instance"
)

// flatRef models CacheHits as the DAG path defined it when its cache was a
// flat map: the set of keys (tables, edge hash, Σγ — or −1 for a deadline
// some task cannot meet) looked up since the tables were last dropped, a
// new key arriving at the cap clearing it first. An evaluation is a hit
// exactly when its key is already in the set. The λ-range index must count
// the same hits, lookup for lookup: CacheHits reaches clients as
// "synthesized".
type flatRef map[flatKey]bool

type flatKey struct {
	c     *instance.Compiled
	edges uint64
	sum   int
}

// eval records the reference evaluation of λ and reports whether the flat
// map would have hit.
func (r flatRef) eval(g *Graph, c *instance.Compiled, lambda float64) (*dagEntry, bool) {
	want := refEval(g, lambda)
	k := flatKey{c, g.edgeHash, want.Sum}
	if !want.OK {
		k.sum = -1
	}
	hit := r[k]
	if !hit {
		if len(r) >= instance.SegmentCap {
			clear(r)
		}
		r[k] = true
	}
	return want, hit
}

func (r flatRef) drop(c *instance.Compiled) {
	for k := range r {
		if k.c == c {
			delete(r, k)
		}
	}
}

// refLambdas is the deadline sequence a solve evaluates, derived from
// refEval alone: SolveCrossover runs the crossover search (the feasibility
// floor, the CP ≥ area crossing, its three neighbours), Solve samples the
// grid first.
func refLambdas(g *Graph, portfolio bool) []float64 {
	var seq []float64
	eval := func(lambda float64) *dagEntry {
		seq = append(seq, lambda)
		return refEval(g, lambda)
	}
	if portfolio {
		grid := g.grid
		step := len(grid)/16 + 1
		for k := 0; k < len(grid); k += step {
			eval(grid[k])
		}
		eval(grid[len(grid)-1])
	}
	cands := g.cands
	from := sort.Search(len(cands), func(k int) bool { return eval(cands[k]).OK })
	rest := cands[from:]
	cross := sort.Search(len(rest), func(k int) bool {
		ent := eval(rest[k])
		return ent.OK && ent.Val.cp >= ent.Work/float64(g.in.M)
	})
	for _, k := range []int{cross - 1, cross, cross + 1} {
		if k >= 0 && k < len(rest) {
			eval(rest[k])
		}
	}
	return seq
}

// runEvalSequence drives one Scratch through the operations data encodes
// and holds every evaluation to refEval and every hit count to flatRef.
// data[0] picks the family, data[1] the seed and the two graphs A and B
// over one instance; each further byte is an operation, its top three bits
// the kind and the low five an argument a:
//
//	0, 1: evaluate A, B on tables c0     2, 6: evaluate A, B on tables c1
//	3, 4: Solve, SolveCrossover of graph a&1 on tables c(a>>1&1)
//	5:    DropCompiled(c(a&1))           7:    evaluate A on c0 between two candidates
//
// c0 and c1 are two compilations of the same instance: equal tables,
// distinct keys. An evaluation's argument 0 is a deadline no allotment
// exists for; 1..31 spread over the graph's feasible candidate deadlines,
// and kind 7 takes the midpoint between the candidate a names and the next,
// which lies in the same segment.
func runEvalSequence(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 3 {
		return
	}
	if len(data) > 42 {
		data = data[:42]
	}
	names := make([]string, 0)
	for name := range instance.Families() {
		names = append(names, name)
	}
	sort.Strings(names)
	seed := int64(data[1])
	in := instance.Families()[names[int(data[0])%len(names)]](seed, 10, 6)
	shapes := testGraphs(t, in, seed)
	graphs := [2]*Graph{shapes[seed%3], shapes[(seed+1)%3]}
	tables := [2]*instance.Compiled{instance.Compile(in), instance.Compile(in)}
	cs := core.NewScratch()
	sc := auxScratch(cs)
	ref := flatRef{}

	evaluate := func(step int, g *Graph, c *instance.Compiled, lambda float64) {
		e := &evalCtx{g: g, c: c, sc: sc}
		got := e.eval(lambda)
		want, hit := ref.eval(g, c, lambda)
		if !evalsEqual(got, want) {
			t.Fatalf("step %d λ=%v: entry %+v, reference %+v", step, lambda, *got, *want)
		}
		if (e.hits == 1) != hit {
			t.Fatalf("step %d λ=%v: hit %v, flat map %v", step, lambda, e.hits == 1, hit)
		}
	}
	for step, b := range data[2:] {
		kind, a := b>>5, int(b&0x1f)
		g, c := graphs[0], tables[0]
		switch kind {
		case 1, 6:
			g = graphs[1]
		case 3, 4:
			g, c = graphs[a&1], tables[a>>1&1]
		case 5:
			c = tables[a&1]
		}
		if kind == 2 || kind == 6 {
			c = tables[1]
		}
		cands := g.cands
		floor := sort.Search(len(cands), func(k int) bool { return refEval(g, cands[k]).OK })
		k := floor + (max(a, 1)-1)*(len(cands)-floor)/31
		lambda := cands[k]
		if a == 0 {
			lambda = cands[0] / 2
		}
		switch kind {
		case 0, 1, 2, 6:
			evaluate(step, g, c, lambda)
		case 7:
			if k+1 < len(cands) {
				lambda = cands[k] + (cands[k+1]-cands[k])/2
			}
			evaluate(step, g, c, lambda)
		case 3, 4:
			run, portfolio := g.SolveCrossover, false
			if kind == 3 {
				run, portfolio = g.Solve, true
			}
			got, gotErr := run(Options{Compiled: c, Scratch: cs})
			want, wantErr := run(Options{Compiled: c})
			seq := refLambdas(g, portfolio)
			hits := 0
			for _, l := range seq {
				if _, hit := ref.eval(g, c, l); hit {
					hits++
				}
			}
			if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !schedulesBitEqual(got.Schedule, want.Schedule)) {
				t.Fatalf("step %d: solve on the shared scratch (%v) differs from a fresh one (%v)", step, gotErr, wantErr)
			}
			if got.Probes != len(seq) || got.CacheHits != hits {
				t.Fatalf("step %d: probes/hits %d/%d, reference %d/%d", step, got.Probes, got.CacheHits, len(seq), hits)
			}
		case 5:
			cs.DropCompiled(c)
			ref.drop(c)
		}
	}
}

// FuzzEvalSequenceMatchesRef: whatever sequence of evaluations, solves and
// drops a Scratch goes through, every evaluation equals refEval and every
// hit count the flat-map model's (see runEvalSequence for the encoding).
// The committed seeds (testdata/fuzz/FuzzEvalSequenceMatchesRef) name what
// they drive: both solvers with hot re-solves, two graphs over one
// Compiled, DropCompiled mid-sequence, deadlines no allotment exists for
// before and after feasible ones, ranges widened from both ends, and the
// second tables.
func FuzzEvalSequenceMatchesRef(f *testing.F) {
	f.Fuzz(runEvalSequence)
}
