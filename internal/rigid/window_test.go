package rigid

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveBestWindow is the definition Windower.Best implements, in O(m·w): the
// maximum of every window of width w, scanned left to right, keeping the
// minimum with the paper's tie rule (leftmost when the start is 0,
// rightmost otherwise).
func naiveBestWindow(front []float64, w int) (x int, start float64) {
	bestX, bestV := -1, 0.0
	for x := 0; w >= 1 && x+w <= len(front); x++ {
		v := front[x]
		for _, f := range front[x+1 : x+w] {
			if f > v {
				v = f
			}
		}
		switch {
		case bestX < 0 || v < bestV:
			bestX, bestV = x, v
		case v == bestV && bestV > 0:
			bestX = x
		}
	}
	return bestX, bestV
}

// checkBestWindow compares wd.Best with the naive reference on front for
// every width from 0 to len(front)+1.
func checkBestWindow(t *testing.T, wd *Windower, front []float64) {
	t.Helper()
	for w := 0; w <= len(front)+1; w++ {
		x, v := wd.Best(front, w)
		nx, nv := naiveBestWindow(front, w)
		if x != nx || v != nv {
			t.Fatalf("front %v, w=%d: Best = (%d, %v), naive (%d, %v)", front, w, x, v, nx, nv)
		}
	}
}

// The block-maxima search picks the naive reference's block on fronts that
// stress its seams: heavy ties on few levels, all-zero prefixes and
// suffixes (the leftmost-at-zero side of the tie rule), every width from
// 1 to m so that m is and is not a multiple of w, and one Windower reused
// across lengths so stale buffer contents would show.
func TestBestWindowMatchesNaive(t *testing.T) {
	var wd Windower
	crafted := [][]float64{
		{0},
		{3},
		{0, 0, 0, 0, 0},
		{2, 2, 2, 2, 2, 2, 2},
		{0, 0, 0, 1, 2},
		{2, 1, 0, 0, 0},
		{1, 0, 0, 0, 1},
		{0, 1, 1, 0, 1, 1, 0},
		{5, 4, 3, 2, 1, 0},
		{0, 1, 2, 3, 4, 5},
		{1, 3, 1, 3, 1, 3, 1, 3},
		// The minimum tied at both ends: leftmost at 0, rightmost above.
		{0, 2, 3, 2, 0},
		{0, 0, 4, 4, 0, 0},
		{1.5, 2, 3, 2, 1.5},
		{1.5, 1.5, 4, 4, 1.5, 1.5},
	}
	for _, front := range crafted {
		checkBestWindow(t, &wd, front)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		m := 1 + rng.Intn(40)
		levels := 1 + rng.Intn(4) // few levels: heavy ties
		front := make([]float64, m)
		for i := range front {
			front[i] = float64(rng.Intn(levels)) * 1.5
		}
		// Zero a random prefix and suffix.
		for i := 0; i < rng.Intn(m+1); i++ {
			front[i] = 0
		}
		for i := m - rng.Intn(m+1); i < m; i++ {
			front[i] = 0
		}
		checkBestWindow(t, &wd, front)
	}
}

// FuzzBestWindowMatchesNaive holds the block-maxima search to the naive
// reference on arbitrary fronts: each byte is one processor's frontier on
// eight levels (so ties are the rule), and w is taken modulo m+2 so that
// the out-of-range widths 0 and m+1 are reached too. Committed seeds live
// in testdata/fuzz/FuzzBestWindowMatchesNaive.
func FuzzBestWindowMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0}, 2)
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7}, 3)
	var wd Windower
	f.Fuzz(func(t *testing.T, data []byte, w int) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		front := make([]float64, len(data))
		for i, b := range data {
			front[i] = float64(b%8) * 0.75
		}
		w %= len(front) + 2
		if w < 0 {
			w = -w
		}
		x, v := wd.Best(front, w)
		nx, nv := naiveBestWindow(front, w)
		if x != nx || v != nv {
			t.Fatalf("front %v, w=%d: Best = (%d, %v), naive (%d, %v)", front, w, x, v, nx, nv)
		}
	})
}

var sinkX int

// BenchmarkBestWindow is the window search alone, on staggered positive
// frontiers like those the canonical list meets after its first level.
// "w=1" times the width nearly every such search asks for (99.2 % of them
// on 24×16 mixed instances, at least 95 % on every generator family at
// 24×16, 30×8 and 60×32); "sweep" every width from 1 to m in turn, so the
// block-maxima scan shows too.
// docs/BENCHMARKS.md's section "The cold dual step" reads it.
func BenchmarkBestWindow(b *testing.B) {
	for _, m := range []int{16, 64} {
		rng := rand.New(rand.NewSource(int64(m)))
		front := make([]float64, m)
		for i := range front {
			front[i] = 1 + float64(rng.Intn(8))*0.25
		}
		for _, c := range []struct {
			name  string
			width func(i int) int
		}{
			{"w=1", func(int) int { return 1 }},
			{"sweep", func(i int) int { return 1 + i%m }},
		} {
			b.Run(fmt.Sprintf("m=%d/%s", m, c.name), func(b *testing.B) {
				var wd Windower
				wd.Best(front, 2) // grow the buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x, _ := wd.Best(front, c.width(i))
					sinkX += x
				}
			})
		}
	}
}
