package knapsack

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// bruteMax is the (KS) oracle: the best profit of a subset with weight ≤
// capacity, by enumerating every subset. Only for n ≤ ~20.
func bruteMax(weights, profits []int, capacity int) int {
	best := 0
	for mask := 0; mask < 1<<len(weights); mask++ {
		w, p := 0, 0
		for i := range weights {
			if mask&(1<<i) != 0 {
				w += weights[i]
				p += profits[i]
			}
		}
		if w <= capacity && p > best {
			best = p
		}
	}
	return best
}

// bruteMin is the (KS') oracle: the least weight of a subset with profit ≥
// target, ok=false if no subset reaches it. Only for n ≤ ~20.
func bruteMin(weights, profits []int, target int) (best int, ok bool) {
	best = math.MaxInt64 / 4
	for mask := 0; mask < 1<<len(weights); mask++ {
		w, p := 0, 0
		for i := range weights {
			if mask&(1<<i) != 0 {
				w += weights[i]
				p += profits[i]
			}
		}
		if p >= target && w < best {
			best, ok = w, true
		}
	}
	return best, ok
}

func sum(weights, profits, sel []int) (w, p int) {
	for _, i := range sel {
		w += weights[i]
		p += profits[i]
	}
	return
}

func randCols(rng *rand.Rand, n, maxW, maxP int) (weights, profits []int) {
	weights, profits = make([]int, n), make([]int, n)
	for i := range weights {
		weights[i], profits[i] = rng.Intn(maxW+1), rng.Intn(maxP+1)
	}
	return weights, profits
}

func TestMaxProfitSmall(t *testing.T) {
	var s Solver
	w, p := []int{3, 4, 2}, []int{5, 6, 3}
	sel, profit := s.MaxProfit(w, p, 6)
	if profit != 9 {
		t.Fatalf("profit = %d, want 9", profit)
	}
	if ws, ps := sum(w, p, sel); ws > 6 || ps != profit {
		t.Fatalf("selection inconsistent: w=%d p=%d", ws, ps)
	}
}

func TestMaxProfitEdges(t *testing.T) {
	var s Solver
	if sel, p := s.MaxProfit(nil, nil, 10); p != 0 || len(sel) != 0 {
		t.Fatal("empty items")
	}
	if sel, p := s.MaxProfit([]int{1}, []int{1}, -1); p != 0 || sel != nil {
		t.Fatal("negative capacity")
	}
	if _, p := s.MaxProfit([]int{0}, []int{7}, 0); p != 7 {
		t.Fatal("zero-weight item must be taken")
	}
	if _, p := s.MaxProfit([]int{5}, []int{7}, 4); p != 0 {
		t.Fatal("oversized item must be skipped")
	}
}

func TestMaxProfitMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Solver
	for iter := 0; iter < 300; iter++ {
		w, p := randCols(rng, 1+rng.Intn(12), 15, 20)
		cap := rng.Intn(40)
		sel, profit := s.MaxProfit(w, p, cap)
		if want := bruteMax(w, p, cap); profit != want {
			t.Fatalf("iter %d: DP=%d brute=%d w=%v p=%v cap=%d", iter, profit, want, w, p, cap)
		}
		if ws, ps := sum(w, p, sel); ws > cap || ps != profit {
			t.Fatalf("iter %d: invalid selection w=%d cap=%d p=%d/%d", iter, ws, cap, ps, profit)
		}
	}
}

// With a grid finer than the integers (eps·weightCap < n) MinWeightApprox
// runs the (KS') DP on the weights themselves, so it solves (KS') exactly.
func TestMinWeightSmall(t *testing.T) {
	var s Solver
	w, p := []int{3, 4, 2}, []int{5, 6, 3}
	sel, weight, ok := s.MinWeightApprox(w, p, 8, 0, 0.1)
	if !ok || weight != 5 { // items 0+2: profit 8, weight 5
		t.Fatalf("MinWeightApprox = (%v,%d,%v), want weight 5", sel, weight, ok)
	}
	if _, _, ok := s.MinWeightApprox(w, p, 15, 0, 0.1); ok {
		t.Fatal("unreachable target must report !ok")
	}
	if _, weight, ok := s.MinWeightApprox(w, p, 0, 0, 0.1); !ok || weight != 0 {
		t.Fatal("target 0 is free")
	}
}

// On a grid finer than the integers MinWeightApprox matches the (KS')
// oracle exactly.
func TestMinWeightMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Solver
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(12)
		w, p := randCols(rng, n, 15, 12)
		target := rng.Intn(30)
		sel, weight, ok := s.MinWeightApprox(w, p, target, rng.Intn(n), 0.99)
		want, wantOK := bruteMin(w, p, target)
		if ok != wantOK {
			t.Fatalf("iter %d: ok=%v want %v", iter, ok, wantOK)
		}
		if !ok {
			continue
		}
		if weight != want {
			t.Fatalf("iter %d: DP=%d brute=%d w=%v p=%v target=%d", iter, weight, want, w, p, target)
		}
		if ws, ps := sum(w, p, sel); ws != weight || ps < target {
			t.Fatalf("iter %d: invalid selection w=%d/%d p=%d target=%d", iter, ws, weight, ps, target)
		}
	}
}

func TestFPTASGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Solver
	for _, eps := range []float64{0.5, 0.2, 0.05} {
		for iter := 0; iter < 150; iter++ {
			w, p := randCols(rng, 1+rng.Intn(12), 15, 1000)
			cap := rng.Intn(40)
			sel, profit := s.MaxProfitFPTAS(w, p, cap, eps)
			opt := bruteMax(w, p, cap)
			if ws, ps := sum(w, p, sel); ws > cap || ps != profit {
				t.Fatalf("eps=%v iter %d: infeasible or inconsistent (w=%d cap=%d)", eps, iter, ws, cap)
			}
			if float64(profit) < (1-eps)*float64(opt)-1e-9 {
				t.Fatalf("eps=%v iter %d: profit %d < (1-eps)*%d", eps, iter, profit, opt)
			}
		}
	}
}

func TestFPTASExactWhenProfitsSmall(t *testing.T) {
	var s Solver
	if _, p := s.MaxProfitFPTAS([]int{3, 4, 2}, []int{5, 6, 3}, 6, 0.3); p != 9 {
		t.Fatalf("small-profit FPTAS should be exact: %d", p)
	}
}

func TestMinWeightApproxGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var s Solver
	for iter := 0; iter < 200; iter++ {
		w, p := randCols(rng, 1+rng.Intn(12), 200, 12)
		target := rng.Intn(30)
		cap := 100 + rng.Intn(900)
		eps := 0.1
		sel, weight, ok := s.MinWeightApprox(w, p, target, cap, eps)
		opt, optOK := bruteMin(w, p, target)
		if ok != optOK {
			t.Fatalf("iter %d: ok=%v want %v", iter, ok, optOK)
		}
		if !ok {
			continue
		}
		if ws, ps := sum(w, p, sel); ws != weight || ps < target {
			t.Fatalf("iter %d: inconsistent selection", iter)
		}
		if float64(weight) > float64(opt)+eps*float64(cap)+1e-9 {
			t.Fatalf("iter %d: weight %d > opt %d + eps·cap %v", iter, weight, opt, eps*float64(cap))
		}
	}
}

// Selections must always be reported in ascending index order (callers zip
// them against task slices).
func TestSelectionsAscending(t *testing.T) {
	var s Solver
	ascending := func(sel []int) bool {
		for i := 1; i < len(sel); i++ {
			if sel[i] <= sel[i-1] {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, p := randCols(rng, 1+rng.Intn(15), 10, 10)
		if sel, _ := s.MaxProfit(w, p, rng.Intn(30)); !ascending(sel) {
			return false
		}
		if sel, _ := s.MaxProfitFPTAS(w, p, rng.Intn(30), 0.2); !ascending(sel) {
			return false
		}
		sel, _, _ := s.MinWeightApprox(w, p, rng.Intn(20), rng.Intn(200), 0.2)
		return ascending(sel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A Solver reused across many differently shaped problems must return
// exactly what a fresh Solver returns — same selections, profits and
// weights — since both run the same code on different memory.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused Solver
	for iter := 0; iter < 300; iter++ {
		w, p := randCols(rng, 1+rng.Intn(14), 29, 29)
		capacity := rng.Intn(60)
		target := rng.Intn(60)
		eps := 0.01 + rng.Float64()*0.3

		var fresh Solver
		selA, profA := fresh.MaxProfit(w, p, capacity)
		selB, profB := reused.MaxProfit(w, p, capacity)
		if profA != profB || !reflect.DeepEqual(selA, selB) {
			t.Fatalf("iter %d: MaxProfit diverged: (%v,%d) vs (%v,%d)", iter, selB, profB, selA, profA)
		}
		fresh = Solver{}
		selA, profA = fresh.MaxProfitFPTAS(w, p, capacity, eps)
		selB, profB = reused.MaxProfitFPTAS(w, p, capacity, eps)
		if profA != profB || !reflect.DeepEqual(selA, selB) {
			t.Fatalf("iter %d: MaxProfitFPTAS diverged", iter)
		}
		fresh = Solver{}
		selA, wA, okA := fresh.MinWeightApprox(w, p, target, capacity, eps)
		selB, wB, okB := reused.MinWeightApprox(w, p, target, capacity, eps)
		if okA != okB || wA != wB || !reflect.DeepEqual(selA, selB) {
			t.Fatalf("iter %d: MinWeightApprox diverged", iter)
		}
	}
}

// Degenerate shapes must not corrupt the reused buffers for later calls.
func TestSolverDegenerateShapes(t *testing.T) {
	var s Solver
	if sel, p := s.MaxProfit(nil, nil, 10); sel != nil || p != 0 {
		t.Fatal("empty items")
	}
	if sel, p := s.MaxProfit([]int{5}, []int{5}, -1); sel != nil || p != 0 {
		t.Fatal("negative capacity")
	}
	if _, _, ok := s.MinWeightApprox([]int{1}, []int{1}, 5, 0, 0.1); ok {
		t.Fatal("unreachable target accepted")
	}
	if sel, w, ok := s.MinWeightApprox(nil, nil, 0, 0, 0.1); sel != nil || w != 0 || !ok {
		t.Fatal("zero target")
	}
	// A normal call right after the degenerate ones.
	sel, p := s.MaxProfit([]int{2, 2}, []int{3, 4}, 2)
	if p != 4 || len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("post-degenerate call broken: sel=%v p=%d", sel, p)
	}
}
