package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// LudwigAllotment's value L* must lower-bound the optimum (witnessed by the
// squashed-area bound's feasibility) and be dominated by every explicit
// allotment, in particular the all-sequential and all-parallel ones.
func TestLudwigAllotmentOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for iter := 0; iter < 150; iter++ {
		m := 1 + rng.Intn(12)
		in := instance.Mixed(rng.Int63(), 1+rng.Intn(25), m)
		alloc, l := LudwigAllotment(in)
		if alloc == nil {
			t.Fatal("no allotment returned")
		}
		// Recompute L(alloc) and compare.
		var work, tmax float64
		for i, tk := range in.Tasks {
			work += tk.Work(alloc[i])
			if tt := tk.Time(alloc[i]); tt > tmax {
				tmax = tt
			}
		}
		if got := math.Max(work/float64(m), tmax); math.Abs(got-l) > 1e-9*(1+got) {
			t.Fatalf("reported L=%v but allotment has L=%v", l, got)
		}
		// Exhaustive check on small instances: no allotment beats L*.
		if in.N() <= 4 && m <= 4 {
			best := bruteBestL(in)
			if l > best*(1+1e-9) {
				t.Fatalf("Ludwig L*=%v worse than brute-force %v", l, best)
			}
		}
		// L* never exceeds the trivial all-sequential witness.
		var seqWork float64
		var seqT float64
		for _, tk := range in.Tasks {
			seqWork += tk.SeqTime()
			if tk.SeqTime() > seqT {
				seqT = tk.SeqTime()
			}
		}
		if l > math.Max(seqWork/float64(m), seqT)+1e-9 {
			t.Fatalf("L* = %v exceeds sequential witness", l)
		}
	}
}

func bruteBestL(in *instance.Instance) float64 {
	n := in.N()
	alloc := make([]int, n)
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var work, tmax float64
			for j, tk := range in.Tasks {
				work += tk.Work(alloc[j])
				if tt := tk.Time(alloc[j]); tt > tmax {
					tmax = tt
				}
			}
			if l := math.Max(work/float64(in.M), tmax); l < best {
				best = l
			}
			return
		}
		for p := 1; p <= in.Tasks[i].MaxProcs(); p++ {
			alloc[i] = p
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestBaselinesValidAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(16)
		in := instance.Mixed(rng.Int63(), 1+rng.Intn(30), m)
		lb := lowerbound.Trivial(in)
		for _, alg := range All() {
			s, err := alg.Run(in)
			if err != nil {
				t.Logf("%s: %v", alg.Name, err)
				return false
			}
			contiguous := alg.Name != "twy-list"
			if err := schedule.Validate(in, s, contiguous); err != nil {
				t.Logf("%s invalid: %v", alg.Name, err)
				return false
			}
			if s.Makespan(in) < lb-1e-9 {
				t.Logf("%s beat the lower bound", alg.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The factor-2 claim for the list baseline, measured against 2·L* (a valid
// relaxation of 2·OPT since L* ≤ OPT).
func TestTWYListFactorTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		m := 1 + rng.Intn(16)
		in := instance.RandomMonotone(rng.Int63(), 1+rng.Intn(40), m)
		_, l := LudwigAllotment(in)
		s := TWYList(in)
		if s.Makespan(in) > 2*l+1e-9 {
			t.Fatalf("iter %d: twy-list %v > 2·L* = %v", iter, s.Makespan(in), 2*l)
		}
	}
}

// FFDH composition: ≤ 1.7·W/m + tmax of its allotment ≤ 2.7·L*.
func TestTWYFFDHBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 150; iter++ {
		m := 1 + rng.Intn(12)
		in := instance.Mixed(rng.Int63(), 1+rng.Intn(30), m)
		_, l := LudwigAllotment(in)
		s, err := TWYPack(in, "ffdh")
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan(in) > 2.7*l+1e-9 {
			t.Fatalf("iter %d: twy-ffdh %v > 2.7·L* = %v", iter, s.Makespan(in), 2.7*l)
		}
	}
}

func TestTWYPackUnknownPacker(t *testing.T) {
	in := instance.Mixed(1, 5, 4)
	if _, err := TWYPack(in, "steinberg"); err == nil {
		t.Fatal("want error for unimplemented packer (Steinberg's algorithm has a stand-in, not an implementation)")
	}
}

func TestSeqLPTUsesOneProcessorEach(t *testing.T) {
	in := instance.Mixed(2, 12, 4)
	s := SeqLPT(in)
	for _, p := range s.Placements {
		if p.Width != 1 {
			t.Fatalf("seq-lpt placed width %d", p.Width)
		}
	}
}

func TestFullParallelStacks(t *testing.T) {
	in := instance.MustNew("fp", 3, []task.Task{
		task.Linear("a", 3, 3), task.Linear("b", 6, 3),
	})
	s := FullParallel(in)
	if err := schedule.Validate(in, s, true); err != nil {
		t.Fatal(err)
	}
	if mk := s.Makespan(in); math.Abs(mk-3) > 1e-9 { // 1 + 2
		t.Fatalf("makespan = %v, want 3", mk)
	}
}
