package knapsack

import (
	"math/rand"
	"reflect"
	"testing"
)

// refCol is the reference model: a plain slice of columns mutated by the
// same edit sequence through the obvious from-scratch semantics.
type refCol struct{ tag, w, p int }

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func rebuildCols(ref []refCol) *Cols {
	var c Cols
	for _, r := range ref {
		c.Append(r.tag, r.w, r.p)
	}
	return &c
}

// Property test of the delta container: random edit sequences — append,
// patch, truncate, and full positional Sync passes with departures — must
// leave the maintained columns element-identical to a from-scratch rebuild
// of the reference sequence, and therefore every solver output identical
// too (selection indices included: the DP backtracking tie-breaks on item
// order, which is exactly what Sync's suffix rebuild protects).
func TestColsDeltaMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Solver
	for trial := 0; trial < 200; trial++ {
		var c Cols
		var ref []refCol
		nextTag := 0
		for op := 0; op < 40; op++ {
			switch k := rng.Intn(4); {
			case k == 0 || len(ref) == 0: // append
				r := refCol{nextTag, rng.Intn(12), rng.Intn(12)}
				nextTag++
				c.Append(r.tag, r.w, r.p)
				ref = append(ref, r)
			case k == 1: // patch
				i := rng.Intn(len(ref))
				ref[i].w, ref[i].p = rng.Intn(12), rng.Intn(12)
				c.Patch(i, ref[i].w, ref[i].p)
			case k == 2: // truncate
				n := rng.Intn(len(ref) + 1)
				ref = ref[:n]
				c.Truncate(n)
			default: // positional sync of a perturbed desired sequence
				var desired []refCol
				for _, r := range ref {
					if rng.Float64() < 0.2 {
						continue // departure
					}
					if rng.Float64() < 0.3 {
						r.w, r.p = rng.Intn(12), rng.Intn(12) // re-scaled
					}
					desired = append(desired, r)
				}
				for rng.Float64() < 0.5 {
					desired = append(desired, refCol{nextTag, rng.Intn(12), rng.Intn(12)})
					nextTag++
				}
				cur := 0
				for _, r := range desired {
					cur = c.Sync(cur, r.tag, r.w, r.p)
				}
				c.Truncate(cur)
				ref = desired
			}
			want := rebuildCols(ref)
			if !eqInts(c.Tags(), want.Tags()) ||
				!eqInts(c.Weights(), want.Weights()) ||
				!eqInts(c.Profits(), want.Profits()) {
				t.Fatalf("trial %d op %d: delta state diverged from rebuild:\n got  %v %v %v\n want %v %v %v",
					trial, op, c.Tags(), c.Weights(), c.Profits(), want.Tags(), want.Weights(), want.Profits())
			}
		}
		if len(c.Tags()) == 0 {
			continue
		}
		capacity := 1 + rng.Intn(20)
		want := rebuildCols(ref)
		gotSel, gotProfit := s.MaxProfit(c.Weights(), c.Profits(), capacity)
		var s2 Solver
		wantSel, wantProfit := s2.MaxProfit(want.Weights(), want.Profits(), capacity)
		if gotProfit != wantProfit || !reflect.DeepEqual(gotSel, wantSel) {
			t.Fatalf("trial %d: MaxProfit diverged: got %v/%d want %v/%d", trial, gotSel, gotProfit, wantSel, wantProfit)
		}
		target := 1 + rng.Intn(20)
		gotSel, gotW, gotOK := s.MinWeightApprox(c.Weights(), c.Profits(), target, 0, 0.1)
		wantSel, wantW, wantOK := s2.MinWeightApprox(want.Weights(), want.Profits(), target, 0, 0.1)
		if gotOK != wantOK || gotW != wantW || !reflect.DeepEqual(gotSel, wantSel) {
			t.Fatalf("trial %d: MinWeightApprox diverged: got %v/%d/%v want %v/%d/%v", trial, gotSel, gotW, gotOK, wantSel, wantW, wantOK)
		}
	}
}

// Sync must self-heal from arbitrary stale state: whatever columns a shared
// scratch carries from a previous instance, one positional Sync pass plus
// the final Truncate leaves exactly the desired sequence.
func TestColsSyncSelfHealing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var c Cols
		for i, n := 0, rng.Intn(20); i < n; i++ {
			c.Append(rng.Intn(10), rng.Intn(12), rng.Intn(12))
		}
		var desired []refCol
		for i, n := 0, rng.Intn(20); i < n; i++ {
			desired = append(desired, refCol{rng.Intn(10), rng.Intn(12), rng.Intn(12)})
		}
		cur := 0
		for _, r := range desired {
			cur = c.Sync(cur, r.tag, r.w, r.p)
		}
		c.Truncate(cur)
		want := rebuildCols(desired)
		if !eqInts(c.Tags(), want.Tags()) ||
			!eqInts(c.Weights(), want.Weights()) ||
			!eqInts(c.Profits(), want.Profits()) {
			t.Fatalf("trial %d: sync from stale state diverged", trial)
		}
	}
}

// Breakpoint-dense adversarial case: many duplicate (weight, profit) pairs
// — the shape the two-shelf step produces on an instance whose λ-threshold
// rows are dense, where whole runs of tasks share d_i and γ_i. Duplicates
// make the DP's profit table full of ties, so any order slip in the delta
// maintenance would surface as a different (equally optimal) selection;
// the selections must match the rebuild index for index, and the optimum
// must match the brute-force oracle.
func TestColsBreakpointDenseAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s, s2 Solver
	for trial := 0; trial < 100; trial++ {
		// A handful of distinct (w, p) classes, many members each.
		classes := make([]refCol, 1+rng.Intn(4))
		for i := range classes {
			classes[i] = refCol{0, 1 + rng.Intn(3), 1 + rng.Intn(3)}
		}
		var c Cols
		var ref []refCol
		for i := 0; i < 14; i++ {
			cl := classes[rng.Intn(len(classes))]
			r := refCol{i, cl.w, cl.p}
			c.Append(r.tag, r.w, r.p)
			ref = append(ref, r)
		}
		// Churn: drop a few members by a positional Sync pass, patch a few
		// across classes, append arrivals of existing classes (maximising
		// duplicate collisions).
		for op := 0; op < 10; op++ {
			switch rng.Intn(3) {
			case 0:
				i := rng.Intn(len(ref))
				ref = append(ref[:i], ref[i+1:]...)
				cur := 0
				for _, r := range ref {
					cur = c.Sync(cur, r.tag, r.w, r.p)
				}
				c.Truncate(cur)
			case 1:
				i := rng.Intn(len(ref))
				cl := classes[rng.Intn(len(classes))]
				ref[i].w, ref[i].p = cl.w, cl.p
				c.Patch(i, cl.w, cl.p)
			default:
				cl := classes[rng.Intn(len(classes))]
				r := refCol{100 + op, cl.w, cl.p}
				ref = append(ref, r)
				c.Append(r.tag, r.w, r.p)
			}
		}
		want := rebuildCols(ref)
		capacity := 1 + rng.Intn(10)
		gotSel, gotProfit := s.MaxProfit(c.Weights(), c.Profits(), capacity)
		wantSel, wantProfit := s2.MaxProfit(want.Weights(), want.Profits(), capacity)
		if gotProfit != wantProfit || !reflect.DeepEqual(gotSel, wantSel) {
			t.Fatalf("trial %d: dense MaxProfit diverged: got %v/%d want %v/%d", trial, gotSel, gotProfit, wantSel, wantProfit)
		}
		if oracle := bruteMax(c.Weights(), c.Profits(), capacity); oracle != gotProfit {
			t.Fatalf("trial %d: dense optimum %d, oracle %d", trial, gotProfit, oracle)
		}
	}
}
