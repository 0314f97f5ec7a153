package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// seqLPTMakespan returns the makespan of the trivially valid all-sequential
// LPT schedule — an upper bound on OPT used to get guesses λ ≥ OPT.
func seqLPTMakespan(in *instance.Instance) float64 {
	loads := make([]float64, in.M)
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	// LPT order.
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if in.Tasks[order[j]].SeqTime() > in.Tasks[order[i]].SeqTime() {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	var mk float64
	for _, i := range order {
		best := 0
		for j := 1; j < in.M; j++ {
			if loads[j] < loads[best] {
				best = j
			}
		}
		loads[best] += in.Tasks[i].SeqTime()
		if loads[best] > mk {
			mk = loads[best]
		}
	}
	return mk
}

func TestCanonicalAllotment(t *testing.T) {
	in := instance.MustNew("ca", 4, []task.Task{
		task.Linear("a", 4, 4),     // γ(1.5) = 3 (4/3≈1.33 ≤ 1.5)
		task.Sequential("b", 1, 4), // γ = 1
	})
	a := CanonicalAllotment(in, 1.5)
	if !a.OK || a.Gamma[0] != 3 || a.Gamma[1] != 1 {
		t.Fatalf("allotment = %+v", a)
	}
	if w := in.Tasks[0].Work(a.Gamma[0]) + in.Tasks[1].Work(a.Gamma[1]); math.Abs(w-5) > 1e-9 { // 3·(4/3) + 1
		t.Fatalf("Work = %v, want 5", w)
	}
	bad := CanonicalAllotment(in, 0.5)
	if bad.OK || bad.Slowest != 0 {
		t.Fatalf("want !OK with Slowest=0, got %+v", bad)
	}
}

// PrefixArea must match a direct simulation of the canonical allotment on an
// unbounded machine, counting the area of the first m processors.
func TestPrefixAreaMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		m := 2 + rng.Intn(12)
		in := instance.RandomMonotone(rng.Int63(), 1+rng.Intn(25), m)
		lambda := seqLPTMakespan(in) * (0.3 + rng.Float64())
		a := CanonicalAllotment(in, lambda)
		if !a.OK {
			continue
		}
		// Simulation: lay tasks side by side in decreasing t(γ) order on an
		// infinite machine; sum column areas of processors 0..m-1.
		var w float64
		x := 0
		for _, i := range byDecreasingTime(a, in) {
			g, tt := a.Gamma[i], in.Tasks[i].Time(a.Gamma[i])
			for k := 0; k < g; k++ {
				if x+k < m {
					w += tt
				}
			}
			x += g
		}
		if got := a.PrefixArea(in); math.Abs(got-w) > 1e-6*(1+w) {
			t.Fatalf("PrefixArea = %v, simulation = %v (m=%d)", got, w, m)
		}
	}
}

func validOrFatal(t *testing.T, in *instance.Instance, s *schedule.Schedule) {
	t.Helper()
	if err := schedule.Validate(in, s, true); err != nil {
		t.Fatalf("%s invalid: %v", s.Algorithm, err)
	}
}

// Theorem 1: for any λ ≥ OPT, MalleableList builds a schedule of makespan ≤
// (2−2/(m+1))λ. We use the all-sequential LPT makespan as a certified λ ≥ OPT.
func TestMalleableListGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 300; iter++ {
		m := 1 + rng.Intn(10)
		in := instance.Mixed(rng.Int63(), 1+rng.Intn(30), m)
		lambda := seqLPTMakespan(in)
		s := MalleableList(in, lambda)
		if s == nil {
			t.Fatalf("iter %d: MalleableList rejected λ ≥ OPT (m=%d λ=%v)", iter, m, lambda)
		}
		validOrFatal(t, in, s)
		if !task.Leq(s.Makespan(in), RhoList(m)*lambda) {
			t.Fatalf("iter %d: makespan %v > %v·λ", iter, s.Makespan(in), RhoList(m))
		}
	}
}

func TestMalleableListRejectsImpossible(t *testing.T) {
	in := instance.MustNew("imp", 2, []task.Task{task.Sequential("a", 10, 2)})
	if s := MalleableList(in, 1); s != nil {
		t.Fatal("should reject: task cannot meet even the relaxed deadline")
	}
}

// The adversarial LPT instance must approach (not exceed) Theorem 1's bound.
func TestMalleableListAdversarial(t *testing.T) {
	for _, m := range []int{3, 5, 8} {
		in := instance.LPTAdversarial(m)
		// OPT = 3m (all processors perfectly packed: classical result).
		opt := 3.0 * float64(m)
		s := MalleableList(in, opt)
		if s == nil {
			t.Fatalf("m=%d: rejected at OPT", m)
		}
		validOrFatal(t, in, s)
		ratio := s.Makespan(in) / opt
		if ratio > RhoList(m)+1e-9 {
			t.Fatalf("m=%d: ratio %v exceeds theorem bound %v", m, ratio, RhoList(m))
		}
		if ratio < 1 {
			t.Fatalf("m=%d: ratio below 1?", m)
		}
	}
}

func TestCanonicalListValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 200; iter++ {
		m := 2 + rng.Intn(14)
		in := instance.RandomMonotone(rng.Int63(), 1+rng.Intn(30), m)
		lambda := seqLPTMakespan(in)
		for _, realloc := range []bool{false, true} {
			s := CanonicalList(in, lambda, realloc)
			if s == nil {
				t.Fatalf("iter %d: canonical allotment must exist at λ ≥ OPT", iter)
			}
			validOrFatal(t, in, s)
		}
	}
}

func TestCanonicalListNilWhenUnreachable(t *testing.T) {
	in := instance.MustNew("u", 2, []task.Task{task.Sequential("a", 5, 2)})
	if s := CanonicalList(in, 1, true); s != nil {
		t.Fatal("want nil for unreachable deadline")
	}
}

func TestTwoShelfStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	built := 0
	for iter := 0; iter < 120; iter++ {
		m := 8 + rng.Intn(24)
		in := instance.TwoShelfStress(rng.Int63(), m)
		lambda := seqLPTMakespan(in) // certainly ≥ OPT
		r := TwoShelf(in, lambda, DefaultParams())
		if r.Schedule == nil {
			continue
		}
		built++
		validOrFatal(t, in, r.Schedule)
		if !task.Leq(r.Schedule.Makespan(in), Rho*lambda) {
			t.Fatalf("iter %d: two-shelf makespan %v > √3·λ=%v", iter, r.Schedule.Makespan(in), Rho*lambda)
		}
		// Structural check: every placement starts at 0 or at λ or stacks
		// within the second shelf [λ, (1+μ)λ].
		for _, p := range r.Schedule.Placements {
			if p.Start != 0 && p.Start < lambda-1e-9 {
				t.Fatalf("iter %d: placement starts inside the first shelf at %v", iter, p.Start)
			}
			if p.Start > (1+Mu)*lambda+1e-9 {
				t.Fatalf("iter %d: placement beyond the second shelf", iter)
			}
		}
	}
	if built == 0 {
		t.Fatal("two-shelf construction never succeeded on its stress family")
	}
}

// At a λ that equals the makespan of a valid schedule (hence λ ≥ OPT), the
// dual step must accept — this is the reproduction's core assertion.
func TestDualStepAcceptsAboveOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		m := 1 + rng.Intn(16)
		var in *instance.Instance
		switch iter % 4 {
		case 0:
			in = instance.Mixed(rng.Int63(), 1+rng.Intn(40), m)
		case 1:
			in = instance.RandomMonotone(rng.Int63(), 1+rng.Intn(40), m)
		case 2:
			in = instance.CommHeavy(rng.Int63(), 1+rng.Intn(40), m)
		default:
			in = instance.WideParallel(rng.Int63(), 1+rng.Intn(10), m)
		}
		lambda := seqLPTMakespan(in)
		r := dualStepOnce(in, lambda, DefaultParams())
		if r.Schedule == nil {
			t.Fatalf("iter %d: rejected λ ≥ OPT (m=%d, reason %v)", iter, m, r.Reject)
		}
		validOrFatal(t, in, r.Schedule)
		if !task.Leq(r.Schedule.Makespan(in), Rho*lambda) {
			t.Fatalf("iter %d: accepted makespan %v > √3λ", iter, r.Schedule.Makespan(in))
		}
	}
}

func TestDualStepCertificates(t *testing.T) {
	in := instance.MustNew("c", 2, []task.Task{task.Sequential("a", 10, 2)})
	r := dualStepOnce(in, 1, DefaultParams())
	if r.Schedule != nil || r.Reject != RejectTooSlow || !r.Certified {
		t.Fatalf("want certified RejectTooSlow, got %+v", r)
	}
	// Area certificate: two sequential unit tasks on one processor, λ just
	// above one task.
	in2 := instance.MustNew("c2", 1, []task.Task{
		task.Sequential("a", 1, 1), task.Sequential("b", 1, 1),
	})
	r2 := dualStepOnce(in2, 1.2, DefaultParams())
	if r2.Schedule != nil || r2.Reject != RejectArea || !r2.Certified {
		t.Fatalf("want certified RejectArea, got %+v", r2)
	}
	for _, rr := range []RejectReason{RejectNone, RejectTooSlow, RejectArea, RejectKnapsack, RejectUnproven, RejectReason(99)} {
		if rr.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

// End-to-end: Approximate returns a valid schedule with certified ratio ≤
// √3(1+ε) and no unproven rejections, across workload families and machine
// sizes. This is experiment E5's core assertion in miniature.
func TestApproximateGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fams := instance.Families()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	for iter := 0; iter < 120; iter++ {
		name := names[iter%len(names)]
		m := 1 + rng.Intn(32)
		in := fams[name](rng.Int63(), 1+rng.Intn(40), m)
		res, err := Approximate(in, Options{Eps: 1e-3})
		if err != nil {
			t.Fatalf("%s m=%d: %v", name, m, err)
		}
		validOrFatal(t, in, res.Schedule)
		if res.UnprovenRejects != 0 {
			t.Fatalf("%s m=%d: %d unproven rejections", name, m, res.UnprovenRejects)
		}
		if r := res.Ratio(); r > Rho*(1+1e-3)+1e-6 {
			t.Fatalf("%s m=%d: certified ratio %v > √3(1+ε)", name, m, r)
		}
		if res.Makespan < res.LowerBound-1e-9 {
			t.Fatalf("%s m=%d: makespan below certified LB", name, m)
		}
	}
}

func TestApproximateCompact(t *testing.T) {
	in := instance.Mixed(3, 25, 8)
	plain, err := Approximate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Approximate(in, Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Makespan > plain.Makespan+1e-9 {
		t.Fatalf("compaction increased makespan: %v > %v", comp.Makespan, plain.Makespan)
	}
	validOrFatal(t, in, comp.Schedule)
}

func TestApproximateSingleProcessor(t *testing.T) {
	in := instance.MustNew("m1", 1, []task.Task{
		task.Sequential("a", 2, 1), task.Sequential("b", 3, 1),
	})
	res, err := Approximate(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-5) > 1e-9 {
		t.Fatalf("m=1 makespan = %v, want 5 (sum)", res.Makespan)
	}
	if res.Ratio() > 1+1e-6 {
		t.Fatalf("m=1 must be optimal, ratio %v", res.Ratio())
	}
}

func TestRhoListValues(t *testing.T) {
	if RhoList(1) != 1 {
		t.Fatalf("RhoList(1) = %v", RhoList(1))
	}
	if math.Abs(RhoList(6)-12.0/7) > 1e-12 {
		t.Fatalf("RhoList(6) = %v", RhoList(6))
	}
	if RhoList(6) > Rho {
		t.Fatal("RhoList(6) must beat √3")
	}
	if RhoList(7) < Rho {
		t.Fatal("RhoList(7) should exceed √3 (this is why SmallM = 6)")
	}
}

func TestDefaultParamsDerived(t *testing.T) {
	p := DefaultParams()
	if math.Abs(p.mu()-(math.Sqrt(3)-1)) > 1e-12 {
		t.Fatalf("mu = %v", p.mu())
	}
	if math.Abs(p.theta()-math.Sqrt(3)/2) > 1e-12 {
		t.Fatalf("theta = %v", p.theta())
	}
}

// An instance whose total-work bound overflows float64 must be refused
// typed instead of bisecting on an infinite interval (found by fuzzing the
// JSON codec: times near 1e308 are valid per-task but their sum is not).
func TestApproximateRefusesOverflow(t *testing.T) {
	huge := task.MustNew("huge", []float64{1e308})
	in := instance.MustNew("overflow", 1, []task.Task{huge, huge, huge})
	_, err := Approximate(in, Options{})
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("got %v, want ErrOverflow", err)
	}
}
