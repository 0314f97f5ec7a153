// Package knapsack implements the 0/1 knapsack solvers the paper's §4 uses
// for allotment selection (Lemma 2): the exact pseudo-polynomial DP for
// problem (KS) — maximise profit under a weight capacity — when m is small
// enough, and otherwise the (KS) FPTAS or the (1+ε) approximation of the
// dual problem (KS'): minimise weight under a profit target.
//
// In the paper's usage an item is a task of T₁ with weight d_i (processors
// needed to finish within the second shelf) and profit γ_i (canonical
// processors released from the first shelf). Items come as two columns,
// weights[i] and profits[i]; core keeps them in a Cols across probes.
package knapsack

import "math"

// inf64 is the sentinel for "unreachable" weights in the (KS') tables.
const inf64 = math.MaxInt64 / 4

// Solver runs the package's solvers on reusable scratch memory. The dual
// search probes a knapsack once per deadline guess with tables of the same
// shape every time; a Solver amortises those tables (the DP rows and the
// backtracking bitsets, the dominant allocation of the hot path) across
// calls instead of re-allocating them per probe.
//
// Every method takes its items as weight/profit columns of equal length:
// weights[i] and profits[i] describe item i, both non-negative. Zero-profit
// items are never taken, zero-weight items always fit.
//
// A returned selection lives in a Solver-owned buffer, like the tables
// beside it: it is valid until the Solver's next call, and callers that
// keep it longer copy it.
//
// The zero value is ready to use. A Solver is not safe for concurrent use;
// pool one per worker (the engine does).
type Solver struct {
	dp      []int      // MaxProfit profit table
	dp64    []int64    // MinWeightApprox / FPTAS weight tables
	flat    []uint64   // backing array for the take bitsets
	take    [][]uint64 // per-item rows sliced out of flat
	scaled  []int      // FPTAS scaled profits
	wscaled []int      // MinWeightApprox scaled weights
	sel     []int      // the last call's selection
}

// ints returns a zeroed int slice of length n, reusing the Solver's buffer.
func (s *Solver) ints(n int) []int {
	if cap(s.dp) < n {
		s.dp = make([]int, n)
	} else {
		s.dp = s.dp[:n]
		clear(s.dp)
	}
	return s.dp
}

// int64s returns an int64 slice of length n (not zeroed; callers initialise
// it fully), reusing the Solver's buffer.
func (s *Solver) int64s(n int) []int64 {
	if cap(s.dp64) < n {
		s.dp64 = make([]int64, n)
	} else {
		s.dp64 = s.dp64[:n]
	}
	return s.dp64
}

// bitRows returns n zeroed bitset rows of the given word width, all sliced
// from one reused backing array.
func (s *Solver) bitRows(n, words int) [][]uint64 {
	total := n * words
	if cap(s.flat) < total {
		s.flat = make([]uint64, total)
	} else {
		s.flat = s.flat[:total]
		clear(s.flat)
	}
	if cap(s.take) < n {
		s.take = make([][]uint64, n)
	} else {
		s.take = s.take[:n]
	}
	for i := range s.take {
		s.take[i] = s.flat[i*words : (i+1)*words]
	}
	return s.take
}

// selected records the backtracked selection (descending, built on s.sel's
// capacity) as the reused buffer and returns it ascending; an empty
// selection stays nil.
func (s *Solver) selected(sel []int) []int {
	s.sel = sel
	if len(sel) == 0 {
		return nil
	}
	for i, j := 0, len(sel)-1; i < j; i, j = i+1, j-1 {
		sel[i], sel[j] = sel[j], sel[i]
	}
	return sel
}

// MaxProfit solves problem (KS) exactly: a subset with total weight ≤
// capacity maximising total profit. It returns the selected indices
// (ascending) and the optimal profit. Time and memory are O(n·capacity) —
// the classical pseudo-polynomial bound the paper quotes as O(n·m).
func (s *Solver) MaxProfit(weights, profits []int, capacity int) (sel []int, profit int) {
	if capacity < 0 {
		return nil, 0
	}
	n := len(weights)
	dp := s.ints(capacity + 1)
	// take[i] is a bitset over capacities: whether item i is taken at that
	// residual capacity in the optimal table.
	words := (capacity + 64) / 64
	take := s.bitRows(n, words)
	for i := 0; i < n; i++ {
		if wt, pf := weights[i], profits[i]; wt <= capacity && pf > 0 {
			row := take[i]
			for c := capacity; c >= wt; c-- {
				if v := dp[c-wt] + pf; v > dp[c] {
					dp[c] = v
					row[c/64] |= 1 << (c % 64)
				}
			}
		}
	}
	profit = dp[capacity]
	c := capacity
	sel = s.sel[:0]
	for i := n - 1; i >= 0; i-- {
		if take[i][c/64]&(1<<(c%64)) != 0 {
			sel = append(sel, i)
			c -= weights[i]
		}
	}
	return s.selected(sel), profit
}

// MaxProfitFPTAS is the fully polynomial approximation scheme for (KS)
// [Papadimitriou; Ibarra–Kim]: the returned subset is feasible and its
// profit is at least (1−eps)·OPT. Complexity O(n³/eps) independent of the
// capacity, which is what makes the paper's allotment selection polynomial
// even when m is exponential in the input size.
func (s *Solver) MaxProfitFPTAS(weights, profits []int, capacity int, eps float64) (sel []int, profit int) {
	pmax := 0
	n := len(weights)
	for i := 0; i < n; i++ {
		if weights[i] <= capacity && profits[i] > pmax {
			pmax = profits[i]
		}
	}
	if pmax == 0 {
		return nil, 0
	}
	k := eps * float64(pmax) / float64(n)
	if k < 1 {
		k = 1 // profits already small: the DP below is exact
	}
	if cap(s.scaled) < n {
		s.scaled = make([]int, n)
	}
	scaled := s.scaled[:n]
	total := 0
	for i := 0; i < n; i++ {
		scaled[i] = int(float64(profits[i]) / k)
		total += scaled[i]
	}
	// dp[q] = min weight achieving scaled profit exactly q.
	const inf = inf64
	dp := s.int64s(total + 1)
	dp[0] = 0
	for q := 1; q <= total; q++ {
		dp[q] = inf
	}
	words := (total + 64) / 64
	take := s.bitRows(n, words)
	for i := 0; i < n; i++ {
		if scaled[i] > 0 || weights[i] == 0 {
			row := take[i]
			for q := total; q >= scaled[i]; q-- {
				if dp[q-scaled[i]] < inf {
					if v := dp[q-scaled[i]] + int64(weights[i]); v < dp[q] {
						dp[q] = v
						row[q/64] |= 1 << (q % 64)
					}
				}
			}
		}
	}
	best := 0
	for q := total; q >= 1; q-- {
		if dp[q] <= int64(capacity) {
			best = q
			break
		}
	}
	q := best
	sel = s.sel[:0]
	for i := n - 1; i >= 0; i-- {
		if take[i][q/64]&(1<<(q%64)) != 0 {
			sel = append(sel, i)
			q -= scaled[i]
		}
	}
	sel = s.selected(sel)
	for _, i := range sel {
		profit += profits[i]
	}
	return sel, profit
}

// MinWeightApprox approximately solves (KS'): it returns a subset with
// profit ≥ target whose weight is at most OPT + eps·weightCap. It scales
// weights down to a grid of n/eps values (rounding down never rejects the
// optimal subset) and runs the exact (KS') DP by profit on the grid, or on
// the weights themselves when the grid would be finer than the integers.
// This is the form Lemma 2 needs: if the optimal solution of (KS') has
// weight ≤ cap/(1+ε*) then the returned one has weight ≤ cap. Time and
// memory are O(n·target). ok is false when the target is unreachable even
// ignoring weights.
func (s *Solver) MinWeightApprox(weights, profits []int, target, weightCap int, eps float64) (sel []int, weight int, ok bool) {
	if target <= 0 {
		return nil, 0, true
	}
	n := len(weights)
	grid := weights
	if k := eps * float64(weightCap) / float64(n); k >= 1 {
		if cap(s.wscaled) < n {
			s.wscaled = make([]int, n)
		}
		grid = s.wscaled[:n]
		for i := 0; i < n; i++ {
			grid[i] = int(float64(weights[i]) / k)
		}
	}
	const inf = inf64
	// dp[q] = minimal grid weight achieving profit ≥ q.
	dp := s.int64s(target + 1)
	dp[0] = 0
	for q := 1; q <= target; q++ {
		dp[q] = inf
	}
	words := (target + 64) / 64
	take := s.bitRows(n, words)
	for i := 0; i < n; i++ {
		if pf := profits[i]; pf > 0 {
			row := take[i]
			for q := target; q >= 1; q-- {
				prev := q - pf
				if prev < 0 {
					prev = 0
				}
				if dp[prev] < inf {
					if v := dp[prev] + int64(grid[i]); v < dp[q] {
						dp[q] = v
						row[q/64] |= 1 << (q % 64)
					}
				}
			}
		}
	}
	if dp[target] >= inf {
		return nil, 0, false
	}
	q := target
	sel = s.sel[:0]
	for i := n - 1; i >= 0; i-- {
		if q > 0 && take[i][q/64]&(1<<(q%64)) != 0 {
			sel = append(sel, i)
			q -= profits[i]
			if q < 0 {
				q = 0
			}
		}
	}
	sel = s.selected(sel)
	for _, i := range sel {
		weight += weights[i]
	}
	return sel, weight, true
}
