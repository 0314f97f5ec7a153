package packing

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFirstFitBasic(t *testing.T) {
	var r Result
	if err := r.FirstFit([]float64{0.6, 0.5, 0.4, 0.3}, 1.0); err != nil {
		t.Fatal(err)
	}
	// 0.6 -> bin0; 0.5 -> bin1; 0.4 -> bin0 (0.6+0.4=1 fits); 0.3 -> bin1.
	want := []int{0, 1, 0, 1}
	for i, b := range r.Bin {
		if b != want[i] {
			t.Fatalf("Bin = %v, want %v", r.Bin, want)
		}
	}
	if r.NumBins() != 2 {
		t.Fatalf("bins = %d, want 2", r.NumBins())
	}
	if r.Offset[2] != 0.6 {
		t.Fatalf("offset of third item = %v, want 0.6", r.Offset[2])
	}
}

func TestFirstFitOversized(t *testing.T) {
	var r Result
	if err := r.FirstFit([]float64{1.2}, 1.0); !errors.Is(err, ErrOversized) {
		t.Fatalf("want ErrOversized, got %v", err)
	}
}

func TestFirstFitEmpty(t *testing.T) {
	var r Result
	if err := r.FirstFit(nil, 1); err != nil || r.NumBins() != 0 {
		t.Fatalf("empty pack: %v bins=%d", err, r.NumBins())
	}
}

// Validity: offsets stack items disjointly and loads never exceed capacity.
func validate(t *testing.T, sizes []float64, capacity float64, r Result) {
	t.Helper()
	type seg struct{ lo, hi float64 }
	bins := make(map[int][]seg)
	for i, s := range sizes {
		bins[r.Bin[i]] = append(bins[r.Bin[i]], seg{r.Offset[i], r.Offset[i] + s})
	}
	for b, segs := range bins {
		var top float64
		for _, sg := range segs {
			if sg.hi > top {
				top = sg.hi
			}
		}
		if top > capacity*(1+1e-9)+1e-9 {
			t.Fatalf("bin %d overfull: %v > %v", b, top, capacity)
		}
		for i := range segs {
			for j := i + 1; j < len(segs); j++ {
				a, c := segs[i], segs[j]
				if a.lo < c.hi-1e-9 && c.lo < a.hi-1e-9 {
					t.Fatalf("bin %d overlap: %v vs %v", b, a, c)
				}
			}
		}
	}
	if len(r.Loads) != 0 {
		// No empty bins: FF only opens a bin to place an item.
		for b, l := range r.Loads {
			if l <= 0 {
				t.Fatalf("bin %d empty (load %v)", b, l)
			}
		}
	}
}

// One Result reused across inputs of every length packs each of them
// validly: nothing of an earlier packing survives into a later one.
func TestFirstFitValidityRandom(t *testing.T) {
	var r Result
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60)
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = rng.Float64()
		}
		if err := r.FirstFit(sizes, 1.0); err != nil {
			return false
		}
		validate(t, sizes, 1.0, r)
		return len(r.Bin) == n && len(r.Offset) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The paper's §4.1 property: FF(C,S) > 1 implies ΣS > C·FF(C,S)/2.
func TestPaperHalfFullProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		capacity := 0.5 + rng.Float64()
		sizes := make([]float64, n)
		var total float64
		for i := range sizes {
			sizes[i] = rng.Float64() * capacity
			total += sizes[i]
		}
		var r Result
		if err := r.FirstFit(sizes, capacity); err != nil {
			return false
		}
		ff := r.NumBins()
		if ff <= 1 {
			return true
		}
		return total > capacity*float64(ff)/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
