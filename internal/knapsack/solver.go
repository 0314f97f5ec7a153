package knapsack

// Solver runs the package's solvers on reusable scratch memory. The dual
// search probes a knapsack once per deadline guess with tables of the same
// shape every time; a Solver amortises those tables (the DP rows and the
// backtracking bitsets, the dominant allocation of the hot path) across
// calls instead of re-allocating them per probe.
//
// Every solver exists in two input forms: the []Item API and the columnar
// *Cols API taking separate weight/profit slices. The columnar form is the
// primary implementation — the compiled-instance hot path of internal/core
// assembles weight/profit columns directly from precompiled tables without
// materialising Items — and the Item methods are adapters that split into
// reused column buffers, so both forms run the exact same DP and return
// identical results.
//
// A returned selection lives in a Solver-owned buffer, like the tables
// beside it: it is valid until the Solver's next call, and callers that
// keep it longer copy it.
//
// The zero value is ready to use. A Solver is not safe for concurrent use;
// pool one per worker (the engine does). The package-level functions remain
// allocation-per-call conveniences delegating to a fresh Solver, so both
// entry points run the exact same algorithm and return identical results.
type Solver struct {
	dp      []int      // MaxProfit profit table
	dp64    []int64    // MinWeight / FPTAS weight tables
	flat    []uint64   // backing array for the take bitsets
	take    [][]uint64 // per-item rows sliced out of flat
	scaled  []int      // FPTAS scaled profits
	wscaled []int      // MinWeightApprox scaled weights
	wsplit  []int      // Item-adapter weight column
	psplit  []int      // Item-adapter profit column
	sel     []int      // the last call's selection
}

// NewSolver returns an empty Solver; buffers grow on demand.
func NewSolver() *Solver { return &Solver{} }

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
	reverse(sel)
	return sel
}

// split copies items into the Solver's reused weight/profit columns.
func (s *Solver) split(items []Item) (weights, profits []int) {
	n := len(items)
	if cap(s.wsplit) < n {
		s.wsplit = make([]int, n)
	}
	if cap(s.psplit) < n {
		s.psplit = make([]int, n)
	}
	weights, profits = s.wsplit[:n], s.psplit[:n]
	for i, it := range items {
		weights[i], profits[i] = it.Weight, it.Profit
	}
	return weights, profits
}

// MaxProfit solves problem (KS) exactly on reused buffers; see the
// package-level MaxProfit for the contract.
func (s *Solver) MaxProfit(items []Item, capacity int) (sel []int, profit int) {
	w, p := s.split(items)
	return s.MaxProfitCols(w, p, capacity)
}

// MaxProfitCols is MaxProfit on weight/profit columns (weights[i] and
// profits[i] describe item i; both slices must have equal length).
func (s *Solver) MaxProfitCols(weights, profits []int, capacity int) (sel []int, profit int) {
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

// MinWeight solves problem (KS') exactly on reused buffers; see the
// package-level MinWeight for the contract.
func (s *Solver) MinWeight(items []Item, target int) (sel []int, weight int, ok bool) {
	w, p := s.split(items)
	return s.MinWeightCols(w, p, target)
}

// MinWeightCols is MinWeight on weight/profit columns.
func (s *Solver) MinWeightCols(weights, profits []int, target int) (sel []int, weight int, ok bool) {
	if target <= 0 {
		return nil, 0, true
	}
	const inf = inf64
	// dp[q] = minimal weight achieving profit ≥ q.
	dp := s.int64s(target + 1)
	dp[0] = 0
	for q := 1; q <= target; q++ {
		dp[q] = inf
	}
	n := len(weights)
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
					if v := dp[prev] + int64(weights[i]); v < dp[q] {
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
	return s.selected(sel), int(dp[target]), true
}

// MaxProfitFPTAS is the (KS) approximation scheme on reused buffers; see the
// package-level MaxProfitFPTAS for the contract.
func (s *Solver) MaxProfitFPTAS(items []Item, capacity int, eps float64) (sel []int, profit int) {
	w, p := s.split(items)
	return s.MaxProfitFPTASCols(w, p, capacity, eps)
}

// MaxProfitFPTASCols is MaxProfitFPTAS on weight/profit columns.
func (s *Solver) MaxProfitFPTASCols(weights, profits []int, capacity int, eps float64) (sel []int, profit int) {
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

// MinWeightApprox approximately solves (KS') on reused buffers; see the
// package-level MinWeightApprox for the contract.
func (s *Solver) MinWeightApprox(items []Item, target, weightCap int, eps float64) (sel []int, weight int, ok bool) {
	w, p := s.split(items)
	return s.MinWeightApproxCols(w, p, target, weightCap, eps)
}

// MinWeightApproxCols is MinWeightApprox on weight/profit columns.
func (s *Solver) MinWeightApproxCols(weights, profits []int, target, weightCap int, eps float64) (sel []int, weight int, ok bool) {
	if target <= 0 {
		return nil, 0, true
	}
	n := len(weights)
	k := eps * float64(weightCap) / float64(n)
	if k < 1 {
		// Grid finer than integers: the exact DP by weight is cheaper.
		return s.MinWeightCols(weights, profits, target)
	}
	if cap(s.wscaled) < n {
		s.wscaled = make([]int, n)
	}
	scaled := s.wscaled[:n]
	for i := 0; i < n; i++ {
		scaled[i] = int(float64(weights[i]) / k)
	}
	sel, _, ok = s.MinWeightCols(scaled, profits, target)
	if !ok {
		return nil, 0, false
	}
	for _, i := range sel {
		weight += weights[i]
	}
	return sel, weight, true
}
