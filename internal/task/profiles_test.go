package task

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSequentialProfile(t *testing.T) {
	tk := Sequential("s", 3, 5)
	if !tk.IsMonotone() {
		t.Fatal("Sequential not monotone")
	}
	for p := 1; p <= 5; p++ {
		if tk.Time(p) != 3 {
			t.Fatalf("Sequential time at p=%d is %v", p, tk.Time(p))
		}
	}
	if g, ok := tk.Canonical(3); !ok || g != 1 {
		t.Fatalf("Sequential canonical = %d,%v", g, ok)
	}
}

func TestLinearProfile(t *testing.T) {
	tk := Linear("l", 8, 4)
	if !tk.IsMonotone() {
		t.Fatal("Linear not monotone")
	}
	if tk.Time(4) != 2 {
		t.Fatalf("Linear t(4) = %v, want 2", tk.Time(4))
	}
	for p := 1; p <= 4; p++ {
		if math.Abs(tk.Work(p)-8) > 1e-12 {
			t.Fatalf("Linear work at p=%d is %v, want 8", p, tk.Work(p))
		}
	}
}

func TestAmdahlProfile(t *testing.T) {
	tk := Amdahl("a", 10, 0.2, 8)
	if !tk.IsMonotone() {
		t.Fatal("Amdahl not monotone")
	}
	if got := tk.Time(1); math.Abs(got-10) > 1e-12 {
		t.Fatalf("Amdahl t(1) = %v", got)
	}
	// t(p) -> work·f as p grows; never below the serial part.
	if tk.Time(8) < 2 {
		t.Fatalf("Amdahl t(8) = %v below serial floor 2", tk.Time(8))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Amdahl with bad fraction should panic")
			}
		}()
		Amdahl("bad", 1, 1.5, 4)
	}()
}

func TestPowerLawProfile(t *testing.T) {
	tk := PowerLaw("p", 16, 0.5, 16)
	if !tk.IsMonotone() {
		t.Fatal("PowerLaw not monotone")
	}
	if got := tk.Time(16); math.Abs(got-4) > 1e-12 {
		t.Fatalf("PowerLaw t(16) = %v, want 4", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PowerLaw with bad alpha should panic")
			}
		}()
		PowerLaw("bad", 1, 0, 4)
	}()
}

func TestCommOverheadMonotoneAfterRepair(t *testing.T) {
	// Strong overhead: the raw profile turns upward quickly.
	tk := CommOverhead("c", 4, 1, 10)
	if !tk.IsMonotone() {
		t.Fatalf("CommOverhead not monotone after repair: %v", tk.Times())
	}
	// The repaired profile should never beat the raw optimum.
	best := math.Inf(1)
	for p := 1; p <= 10; p++ {
		raw := 4/float64(p) + 1*float64(p-1)
		if raw < best {
			best = raw
		}
		if tk.Time(p) < best-1e-12 {
			t.Fatalf("repair produced impossible speedup at p=%d: %v < %v", p, tk.Time(p), best)
		}
	}
}

func TestRigidProfile(t *testing.T) {
	tk := Rigid("r", 2, 4, 8)
	if !tk.IsMonotone() {
		t.Fatal("Rigid not monotone")
	}
	if tk.Time(8) != tk.Time(4) {
		t.Fatalf("Rigid should be flat beyond req: t(4)=%v t(8)=%v", tk.Time(4), tk.Time(8))
	}
	if tk.Time(1) <= tk.Time(4) {
		t.Fatal("Rigid should degrade below req")
	}
}

func TestNonMonotoneIsNonMonotone(t *testing.T) {
	tk := NonMonotone("nm", 8, 3, 0.3, 6)
	if tk.IsMonotone() {
		t.Fatal("NonMonotone should violate monotony")
	}
	if _, err := New("nm2", tk.Times()); err == nil {
		t.Fatal("New should reject the NonMonotone profile")
	}
	if fixed := Monotonize(tk.Times()); !MustNewQuiet(fixed) {
		t.Fatal("Monotonize should repair the NonMonotone profile")
	}
}

// MustNewQuiet reports whether a profile passes validation.
func MustNewQuiet(times []float64) bool {
	_, err := New("q", times)
	return err == nil
}

// Every profile constructor must produce a validating profile for random
// parameters (CommOverhead/Rigid via their built-in repair).
func TestAllProfilesValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(32)
		w := 0.5 + 10*rng.Float64()
		tasks := []Task{
			Sequential("s", w, m),
			Linear("l", w, m),
			Amdahl("a", w, rng.Float64(), m),
			PowerLaw("p", w, 0.05+0.95*rng.Float64(), m),
			CommOverhead("c", w, rng.Float64(), m),
			Rigid("r", w, 1+rng.Intn(m), m),
		}
		for _, tk := range tasks {
			if _, err := New(tk.Name, tk.Times()); err != nil {
				t.Logf("profile %s failed: %v (times=%v)", tk.Name, err, tk.Times())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
