package strippack

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randRects(rng *rand.Rand, n, m int) []Rect {
	rects := make([]Rect, n)
	for i := range rects {
		rects[i] = Rect{Width: 1 + rng.Intn(m), Height: 0.05 + rng.Float64()*4}
	}
	return rects
}

type packer struct {
	name string
	f    func([]Rect, int) ([]Pos, float64, error)
}

func packers() []packer {
	return []packer{{"NFDH", NFDH}, {"FFDH", FFDH}, {"BLD", BLD}}
}

// mustPack runs a packer on input the test knows is well-formed.
func mustPack(t *testing.T, p packer, rects []Rect, m int) ([]Pos, float64) {
	t.Helper()
	pos, h, err := p.f(rects, m)
	if err != nil {
		t.Fatalf("%s: unexpected error: %v", p.name, err)
	}
	return pos, h
}

func TestPackersEmpty(t *testing.T) {
	for _, p := range packers() {
		pos, h := mustPack(t, p, nil, 4)
		if len(pos) != 0 || h != 0 {
			t.Fatalf("%s: empty pack gave height %v", p.name, h)
		}
	}
}

func TestPackersSingle(t *testing.T) {
	rects := []Rect{{Width: 3, Height: 2}}
	for _, p := range packers() {
		pos, h := mustPack(t, p, rects, 4)
		if h != 2 || pos[0].X != 0 || pos[0].Y != 0 {
			t.Fatalf("%s: single rect packed at %+v height %v", p.name, pos[0], h)
		}
	}
}

func TestPackersValidityRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(16)
		rects := randRects(rng, rng.Intn(40), m)
		for _, p := range packers() {
			pos, h, err := p.f(rects, m)
			if err != nil {
				t.Logf("%s errored on valid input (seed %d): %v", p.name, seed, err)
				return false
			}
			if err := Validate(rects, pos, m, h); err != nil {
				t.Logf("%s invalid (seed %d): %v", p.name, seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// areaOf returns the total area of the rectangles.
func areaOf(rects []Rect) float64 {
	var a float64
	for _, r := range rects {
		a += float64(r.Width) * r.Height
	}
	return a
}

// maxHeight returns the tallest rectangle's height.
func maxHeight(rects []Rect) float64 {
	var h float64
	for _, r := range rects {
		if r.Height > h {
			h = r.Height
		}
	}
	return h
}

// Classical bounds: NFDH ≤ 2·A/m + hmax and FFDH ≤ 1.7·A/m + hmax.
func TestLevelPackerHeightBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(16)
		rects := randRects(rng, 1+rng.Intn(50), m)
		a, hm := areaOf(rects), maxHeight(rects)
		if _, h, _ := NFDH(rects, m); h > 2*a/float64(m)+hm+1e-9 {
			t.Logf("NFDH bound violated: h=%v A/m=%v hmax=%v", h, a/float64(m), hm)
			return false
		}
		if _, h, _ := FFDH(rects, m); h > 1.7*a/float64(m)+hm+1e-9 {
			t.Logf("FFDH bound violated (seed %d)", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FFDH never does worse than NFDH on these inputs (it only reuses levels),
// and every packer stays above the trivial lower bound max(hmax, A/m) and
// below the trivial upper bound Σ heights.
func TestRelativeQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		m := 2 + rng.Intn(14)
		rects := randRects(rng, 5+rng.Intn(40), m)
		lb := maxHeight(rects)
		if a := areaOf(rects) / float64(m); a > lb {
			lb = a
		}
		var ub float64
		for _, r := range rects {
			ub += r.Height
		}
		_, hn, _ := NFDH(rects, m)
		_, hf, _ := FFDH(rects, m)
		_, hb, _ := BLD(rects, m)
		if hf > hn+1e-9 {
			t.Fatalf("FFDH worse than NFDH: %v > %v", hf, hn)
		}
		for name, h := range map[string]float64{"NFDH": hn, "FFDH": hf, "BLD": hb} {
			if h < lb-1e-9 {
				t.Fatalf("%s below lower bound: %v < %v", name, h, lb)
			}
			if h > ub+1e-9 {
				t.Fatalf("%s above stacking bound: %v > %v", name, h, ub)
			}
		}
	}
}

func TestFFDHReusesLevels(t *testing.T) {
	// Tall narrow rect opens level 1; wide short rect opens level 2; then a
	// narrow short rect must return to level 1 under FFDH (x=1 fits) but
	// not under NFDH.
	rects := []Rect{{1, 5}, {4, 2}, {1, 1}}
	m := 4
	posF, hF, _ := FFDH(rects, m)
	if posF[2].Y != 0 {
		t.Fatalf("FFDH should reuse level 0 for the small rect: %+v", posF[2])
	}
	if hF != 7 {
		t.Fatalf("FFDH height = %v, want 7", hF)
	}
	posN, hN, _ := NFDH(rects, m)
	if hN != 8 || posN[2].Y != 7 {
		t.Fatalf("NFDH expected to stack a third level: h=%v pos=%+v", hN, posN[2])
	}
}

func TestBLDFillsGaps(t *testing.T) {
	// Two towers leave a valley that BLD must use.
	rects := []Rect{{2, 4}, {2, 4}, {2, 1}}
	m := 6
	pos, h, err := BLD(rects, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(rects, pos, m, h); err != nil {
		t.Fatal(err)
	}
	if h != 4 {
		t.Fatalf("BLD height = %v, want 4 (valley used)", h)
	}
	if pos[2].Y != 0 {
		t.Fatalf("small rect should sit at the bottom: %+v", pos[2])
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	rects := []Rect{{2, 2}, {2, 2}}
	pos := []Pos{{0, 0}, {1, 1}}
	if err := Validate(rects, pos, 4, 4); err == nil {
		t.Fatal("want overlap error")
	}
	if err := Validate(rects, pos[:1], 4, 4); err == nil {
		t.Fatal("want length mismatch error")
	}
}

// Hostile rects fail with the typed ErrBadRect, never a panic, in every
// packer — the property the serving path relies on.
func TestBadRectTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		rects []Rect
	}{
		{"oversized width", []Rect{{Width: 5, Height: 1}}},
		{"zero width", []Rect{{Width: 0, Height: 1}}},
		{"negative width", []Rect{{Width: -3, Height: 1}}},
		{"negative height", []Rect{{Width: 2, Height: -1}}},
		{"nan height", []Rect{{Width: 2, Height: math.NaN()}}},
		{"inf height", []Rect{{Width: 2, Height: math.Inf(1)}}},
	}
	for _, tc := range cases {
		for _, p := range packers() {
			pos, h, err := p.f(tc.rects, 4)
			if !errors.Is(err, ErrBadRect) {
				t.Fatalf("%s/%s: want ErrBadRect, got %v", p.name, tc.name, err)
			}
			if pos != nil || h != 0 {
				t.Fatalf("%s/%s: want zero results on error, got %v %v", p.name, tc.name, pos, h)
			}
		}
	}
}

// The NaN rejection must not claim the height is "negative" — the old
// message lied about what the guard caught.
func TestNaNHeightMessageIsHonest(t *testing.T) {
	_, _, err := NFDH([]Rect{{Width: 1, Height: math.NaN()}}, 4)
	if err == nil {
		t.Fatal("want error for NaN height")
	}
	if strings.Contains(err.Error(), "has negative height") {
		t.Fatalf("message still calls NaN negative: %v", err)
	}
	if !strings.Contains(err.Error(), "non-finite or negative") {
		t.Fatalf("message should name the non-finite case: %v", err)
	}
}
