package instance

import (
	"math"
	"slices"
	"sort"
	"testing"

	"malsched/internal/task"
)

// unchecked builds a task around validation: task.NewOwned keeps the slice
// it is handed, so overwriting that slice afterwards plants any table —
// rising rows, NaN, +Inf — behind a Task value.
func unchecked(times ...float64) task.Task {
	own := make([]float64, len(times))
	for i := range own {
		own[i] = 1
	}
	t, err := task.NewOwned("unchecked", own)
	if err != nil {
		panic(err)
	}
	copy(own, times)
	return t
}

// allotAt returns γ(λ) and Σγ, or nil when some task cannot meet λ.
func allotAt(c *Compiled, lambda float64) ([]int, int) {
	vec, sum := make([]int, c.N()), 0
	for i := range vec {
		g, ok := c.Gamma(i, lambda)
		if !ok {
			return nil, 0
		}
		vec[i] = g
		sum += g
	}
	return vec, sum
}

// lambdaGrid is every deadline at which an allotment can change, and the
// ones around it: each threshold of the tables, its two neighbours on the
// float lattice, and the midpoints between consecutive distinct thresholds.
// Ascending, distinct.
func lambdaGrid(c *Compiled) []float64 {
	thr := c.GlobalBreakpoints()
	var grid []float64
	for k, b := range thr {
		grid = append(grid, b, math.Nextafter(b, math.Inf(1)))
		if b > 0 {
			grid = append(grid, math.Nextafter(b, math.Inf(-1)))
		}
		if k > 0 && !math.IsInf(b, 1) {
			grid = append(grid, thr[k-1]+(b-thr[k-1])/2)
		}
	}
	sort.Float64s(grid)
	return slices.Compact(grid)
}

// checkAllotmentSum walks the grid upwards and holds Gamma to the three
// properties the allotment-keyed caches rest on: once every task meets a
// deadline every larger deadline is met too, γ is componentwise
// non-increasing in λ, and two deadlines with equal Σγ have equal vectors
// (unequal sums trivially have unequal ones). With segments set, the Σγ
// classes must also be the Segment classes one for one.
func checkAllotmentSum(t *testing.T, ctx string, c *Compiled, segments bool) {
	t.Helper()
	var below []int // γ at the previous feasible deadline
	bySum := map[int][]int{}
	segOfSum, sumOfSeg := map[int]int{}, map[int]int{}
	for _, l := range lambdaGrid(c) {
		vec, sum := allotAt(c, l)
		if vec == nil {
			if below != nil {
				t.Fatalf("%s: every task met a deadline below λ=%v, but not λ itself", ctx, l)
			}
			continue
		}
		for i := range below {
			if vec[i] > below[i] {
				t.Fatalf("%s: γ_%d rose to %d at λ=%v from %d at a smaller deadline", ctx, i, vec[i], l, below[i])
			}
		}
		below = vec
		if first, seen := bySum[sum]; !seen {
			bySum[sum] = vec
		} else if !slices.Equal(first, vec) {
			t.Fatalf("%s: Σγ=%d names two allotments, %v and %v (λ=%v)", ctx, sum, first, vec, l)
		}
		if !segments {
			continue
		}
		seg := c.Segment(l)
		if s, seen := segOfSum[sum]; seen && s != seg {
			t.Fatalf("%s: Σγ=%d spans segments %d and %d (λ=%v)", ctx, sum, s, seg, l)
		}
		if s, seen := sumOfSeg[seg]; seen && s != sum {
			t.Fatalf("%s: segment %d holds Σγ=%d and %d (λ=%v)", ctx, seg, s, sum, l)
		}
		segOfSum[sum], sumOfSeg[seg] = seg, sum
	}
}

// The caches of core and precedence key a canonical allotment on Σγ. That
// is sound on any table, validated or not; on the generator families'
// monotone profiles the classes are exactly the breakpoint segments.
func TestAllotmentSumIdentifiesAllotment(t *testing.T) {
	for name, gen := range Families() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, dims := range [][2]int{{24, 16}, {30, 8}, {40, 64}} {
				checkAllotmentSum(t, name, Compile(gen(seed, dims[0], dims[1])), true)
			}
		}
	}

	const wiggle = 1 + 5e-10 // inside checkTimes' 1e-9 tolerance
	twin := unchecked(9, 9, 4, 4, 4, 2)
	for name, tasks := range map[string][]task.Task{
		"rising within tolerance": {unchecked(6, 3, 3*wiggle, 3*wiggle*wiggle, 2), unchecked(5, 5*wiggle, 1)},
		"plateaus and twins":      {twin, twin, unchecked(7, 7, 7, 7), unchecked(4, 4, 4, 2, 2, 2)},
		"rising outright":         {unchecked(3, 5, 2, 8, 1), unchecked(1, 2, 3, 4), unchecked(2, 9, 2, 9, 2)},
		"nan and inf":             {unchecked(5, math.NaN(), 2, math.Inf(1), 1), unchecked(math.Inf(1), 3, math.NaN())},
		"nan tail":                {unchecked(4, 2, math.NaN()), unchecked(3, 1)},
		"empty profile":           {unchecked(4, 2), {}, unchecked(3, 1)},
		"zero and negative":       {unchecked(0, 0), unchecked(2, -1, 1)},
	} {
		checkAllotmentSum(t, name, Compile(&Instance{Name: name, M: 6, Tasks: tasks}), false)
	}
}

// fuzzTable decodes fuzz bytes into an arbitrary positive table, built
// around validation: the first byte sets the row width (1..8), every
// further byte one entry — sixteen integer levels so rows tie and plateau,
// each nudged by up to 3.75e-9 relative so they also wiggle on both sides
// of the comparison tolerance. At most 16 rows; a short last row is kept.
func fuzzTable(rows []byte) []task.Task {
	if len(rows) < 2 {
		return nil
	}
	width := 1 + int(rows[0]%8)
	var tasks []task.Task
	for body := rows[1:]; len(body) > 0 && len(tasks) < 16; {
		w := min(width, len(body))
		times := make([]float64, w)
		for p, b := range body[:w] {
			times[p] = float64(1+b&0x0f) * (1 + float64(b>>4)*2.5e-10)
		}
		tasks = append(tasks, unchecked(times...))
		body = body[w:]
	}
	return tasks
}

// FuzzAllotmentSum holds two arbitrary deadlines on an arbitrary positive
// table to the properties of TestAllotmentSumIdentifiesAllotment: existence
// is monotone, γ is componentwise non-increasing, equal Σγ means equal γ.
func FuzzAllotmentSum(f *testing.F) {
	f.Add([]byte{3, 0x08, 0x03, 0x03, 0x05, 0x15, 0x00}, 2.0, 5.0)
	f.Add([]byte{1, 0x02, 0x12, 0x22, 0x32}, 2.999999990, 3.0)
	f.Add([]byte{7, 1, 9, 2, 8, 3, 7, 4, 6, 5, 5}, 0.5, 1e9)

	f.Fuzz(func(t *testing.T, rows []byte, l1, l2 float64) {
		tasks := fuzzTable(rows)
		if tasks == nil || math.IsNaN(l1) || math.IsNaN(l2) {
			return
		}
		c := Compile(&Instance{Name: "fuzz", M: 8, Tasks: tasks})
		lo, hi := min(l1, l2), max(l1, l2)
		small, smallSum := allotAt(c, lo)
		large, largeSum := allotAt(c, hi)
		if small == nil {
			return // nothing is promised above a deadline some task misses
		}
		if large == nil {
			t.Fatalf("every task meets λ=%v but not λ=%v", lo, hi)
		}
		for i := range small {
			if large[i] > small[i] {
				t.Fatalf("γ_%d = %d at λ=%v, %d at λ=%v", i, small[i], lo, large[i], hi)
			}
		}
		if (smallSum == largeSum) != slices.Equal(small, large) {
			t.Fatalf("Σγ %d vs %d, γ %v vs %v (λ=%v, %v)", smallSum, largeSum, small, large, lo, hi)
		}
	})
}
