package task

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// descending is the slices.SortStableFunc comparator SortDescending
// replaces: negative when x > y, positive when x < y, zero otherwise. Exact
// compares, no tolerance; a NaN ties with everything.
func descending(x, y float64) int {
	switch {
	case x > y:
		return -1
	case x < y:
		return 1
	}
	return 0
}

// checkSortDescending holds SortDescending to slices.SortStableFunc over
// descending on one input: order holds indices into keys.
func checkSortDescending(t *testing.T, ctx string, order []int, keys []float64) {
	t.Helper()
	want := slices.Clone(order)
	slices.SortStableFunc(want, func(x, y int) int { return descending(keys[x], keys[y]) })
	got := slices.Clone(order)
	SortDescending(got, keys)
	if !slices.Equal(got, want) {
		t.Fatalf("%s, n=%d: keys %v, order %v:\nSortDescending %v\nSortStableFunc %v", ctx, len(keys), keys, order, got, want)
	}
}

// sortPalette is the fuzz targets' key alphabet: ties, both zeros, both
// infinities and NaN.
var sortPalette = []float64{0, math.Copysign(0, -1), 1, 1, 2, -1, 0.5, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 5e-324}

// SortDescending is slices.SortStableFunc's algorithm, compare for compare:
// every length from 0 to 200 — the block seams at 20/21/40/41/80/81
// among them — on distinct keys, heavy ties, and keys holding ±0, ±Inf
// and NaN (no stable order exists for NaN, so only the same algorithm
// lands where the reference does), over the identity order and a shuffled
// one.
func TestSortDescendingMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []struct {
		name string
		key  func(i, n int) float64
	}{
		{"distinct", func(i, n int) float64 { return rng.Float64() }},
		{"ties", func(i, n int) float64 { return float64(rng.Intn(3)) }},
		{"ascending", func(i, n int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"specials", func(i, n int) float64 { return sortPalette[rng.Intn(len(sortPalette))] }},
		{"sparse NaN", func(i, n int) float64 {
			if rng.Intn(8) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(6))
		}},
	}
	for n := 0; n <= 200; n++ {
		for _, k := range kinds {
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = k.key(i, n)
			}
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			checkSortDescending(t, k.name, order, keys)
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			checkSortDescending(t, k.name+", shuffled", order, keys)
		}
	}
}

// FuzzSortDescendingMatchesStable holds SortDescending to
// slices.SortStableFunc on arbitrary inputs: each byte is one key from
// sortPalette, so ties and specials are the rule, and shift rotates the
// order so it is not always the identity. Committed seeds live in
// testdata/fuzz/FuzzSortDescendingMatchesStable.
func FuzzSortDescendingMatchesStable(f *testing.F) {
	f.Add([]byte{2, 2, 2, 3, 9, 0, 1}, uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		if len(data) > 512 {
			return
		}
		keys := make([]float64, len(data))
		order := make([]int, len(data))
		for i, b := range data {
			keys[i] = sortPalette[int(b)%len(sortPalette)]
			order[i] = i
		}
		if len(order) > 0 {
			s := int(shift) % len(order)
			order = append(order[s:], order[:s]...)
		}
		checkSortDescending(t, "fuzz", order, keys)
	})
}
