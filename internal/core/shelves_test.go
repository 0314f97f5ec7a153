package core

import (
	"math/rand"
	"reflect"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

func TestPartitionBands(t *testing.T) {
	m := 16
	in := instance.MustNew("p", m, []task.Task{
		task.PowerLaw("big", 12, 0.95, m),     // canonical time close to 1
		task.Sequential("mid", 0.6, m),        // (1/2, μ]
		task.Sequential("small", 0.3, m),      // ≤ 1/2
		task.Sequential("tiny", 0.05, m),      // ≤ 1/2
		task.PowerLaw("big2", 12.5, 0.95, m),  // big
		task.Sequential("border", 0.74, m),    // > μ ≈ 0.732 → T1
		task.Sequential("border2", 0.72, m),   // ≤ μ → T2
		task.Sequential("exact-half", 0.5, m), // exactly λ/2 → TS
	})
	a := CanonicalAllotment(in, 1)
	if !a.OK {
		t.Fatal("allotment must exist")
	}
	part, err := NewPartition(in, a, Mu)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"big": "T1", "big2": "T1", "border": "T1",
		"mid": "T2", "border2": "T2",
		"small": "TS", "tiny": "TS", "exact-half": "TS",
	}
	got := map[string]string{}
	for _, i := range part.T1 {
		got[in.Tasks[i].Name] = "T1"
	}
	for _, i := range part.T2 {
		got[in.Tasks[i].Name] = "T2"
	}
	for _, i := range part.TS {
		got[in.Tasks[i].Name] = "TS"
	}
	for name, band := range want {
		if got[name] != band {
			t.Errorf("%s in %s, want %s", name, got[name], band)
		}
	}
	// TS tasks must be sequential (Property 1).
	for _, i := range part.TS {
		if a.Gamma[i] != 1 {
			t.Errorf("TS task %s has γ=%d", in.Tasks[i].Name, a.Gamma[i])
		}
	}
	// Q1 = Σ_{T1} γ − m.
	sum := 0
	for _, i := range part.T1 {
		sum += a.Gamma[i]
	}
	if part.Q1 != sum-m {
		t.Errorf("Q1 = %d, want %d", part.Q1, sum-m)
	}
}

// Forcing MaxDPCells to 0 exercises the §4.4 approximation-scheme path
// (Lemma 2): the FPTAS and the dual knapsack must still find μ-schedules
// whenever the exact DP does.
func TestTwoShelfFPTASPathMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	pDP := DefaultParams()
	pApprox := DefaultParams()
	pApprox.MaxDPCells = 0 // always approximate
	pApprox.KnapsackEps = 0.05
	dpBuilt, apBuilt := 0, 0
	for iter := 0; iter < 100; iter++ {
		m := 8 + rng.Intn(24)
		in := instance.TwoShelfStress(rng.Int63(), m)
		lambda := 0.0
		for _, tk := range in.Tasks {
			lambda += tk.SeqTime()
		}
		lambda /= float64(m) // may be below OPT; both paths see the same λ
		lambda *= 1.5
		rdp := twoShelfOn(in, lambda, pDP)
		rap := twoShelfOn(in, lambda, pApprox)
		if rdp != nil {
			dpBuilt++
			if err := schedule.Validate(in, rdp, true); err != nil {
				t.Fatal(err)
			}
		}
		if rap != nil {
			apBuilt++
			if err := schedule.Validate(in, rap, true); err != nil {
				t.Fatal(err)
			}
			if !task.Leq(rap.Makespan(in), Rho*lambda) {
				t.Fatalf("approximate path exceeded √3λ: %v", rap.Makespan(in))
			}
		}
		// Lemma 2: with ε ≤ ε*, the approximation path must succeed
		// whenever the exact one does.
		if rdp != nil && rap == nil {
			t.Fatalf("iter %d: FPTAS path missed a μ-schedule the DP found", iter)
		}
	}
	if dpBuilt == 0 || apBuilt == 0 {
		t.Fatalf("stress family never produced μ-schedules (dp=%d approx=%d)", dpBuilt, apBuilt)
	}
}

func twoShelfOn(in *instance.Instance, lambda float64, p Params) *schedule.Schedule {
	r := TwoShelf(in, lambda, p)
	return r.Schedule
}

func TestTwoShelfTrivialSolutionPath(t *testing.T) {
	// One giant task plus a first shelf's worth of mid tasks: the §4.5
	// trivial solution must trigger.
	m := 12
	var tasks []task.Task
	// Work 0.65·m: canonical time > μ (lands in T1) yet the full machine
	// reaches the μλ deadline, so the task can enter the second shelf.
	tasks = append(tasks, task.PowerLaw("giant", float64(m)*0.65, 0.98, m))
	for i := 0; i < m; i++ {
		tasks = append(tasks, task.Sequential("s", 0.8, m))
	}
	in := instance.MustNew("triv", m, tasks)
	r := TwoShelf(in, 1, DefaultParams())
	if r.Schedule == nil {
		t.Fatal("no schedule")
	}
	if r.Method != "trivial" && r.Method != "knapsack-dp" && r.Method != "empty" {
		t.Fatalf("unexpected method %q", r.Method)
	}
	if err := schedule.Validate(in, r.Schedule, true); err != nil {
		t.Fatal(err)
	}
	if !task.Leq(r.Schedule.Makespan(in), Rho) {
		t.Fatalf("makespan %v > √3", r.Schedule.Makespan(in))
	}
}

func TestTwoShelfRejectsUnreachable(t *testing.T) {
	in := instance.MustNew("u", 8, []task.Task{task.Sequential("a", 5, 8)})
	r := TwoShelf(in, 1, DefaultParams())
	if r.Schedule != nil || !r.Exact {
		t.Fatalf("want exact failure, got %+v", r)
	}
}

// The empty-selection path: everything fits in the first shelf.
func TestTwoShelfEmptySelection(t *testing.T) {
	m := 10
	var tasks []task.Task
	for i := 0; i < 5; i++ {
		tasks = append(tasks, task.Sequential("t", 0.9, m))
	}
	in := instance.MustNew("e", m, tasks)
	r := TwoShelf(in, 1, DefaultParams())
	if r.Schedule == nil || r.Method != "empty" {
		t.Fatalf("want empty method, got %+v", r)
	}
}

// trivialSolution tries the T1 tasks in turn on one shared placement buffer.
// With an honest partition a candidate with γ ≥ need always fits (need is
// exactly the first-shelf overflow), so the half-built-then-abandoned case
// takes a partition whose Q1 understates the overflow by one: the first
// qualifying τ then fails at the T2 task, after two placements are already
// written, and the second τ must start from an empty buffer.
func TestTrivialSolutionResetsPerCandidate(t *testing.T) {
	const m = 10
	in := instance.MustNew("reset", m, []task.Task{
		task.Linear("tau-narrow", 3, m), // γ(1)=3, d=5
		task.Linear("tau-wide", 6, m),   // γ(1)=6, d=9
		task.Linear("big", 4, m),        // γ(1)=4
		task.Sequential("mid", 0.6, m),  // T2, γ=1
	})
	c := instance.Compile(in)
	sc := NewScratch()
	a := allotmentOf(filled(&sc.seg, c, 1), 1)
	part, err := newPartition(c, a, Mu, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := trivialSolution(c, a, part, sc); got.method != "trivial" || got.placements[len(got.placements)-1].Task != 1 {
		t.Fatalf("honest partition: want the trivial solution around tau-wide, got %+v", got)
	}
	part.Q1-- // tau-narrow now qualifies first, and cannot be placed around
	got := trivialSolution(c, a, part, sc)
	want := []schedule.Placement{
		{Task: 0, Start: 0, Width: 3, First: 0},
		{Task: 2, Start: 0, Width: 4, First: 3},
		{Task: 3, Start: 0, Width: 1, First: 7},
		{Task: 1, Start: 1, Width: 9, First: 0},
	}
	if !reflect.DeepEqual(got.placements, want) {
		t.Fatalf("second candidate built on the first one's leftovers:\n got %+v\nwant %+v", got.placements, want)
	}
	s := got.schedule()
	if err := schedule.Validate(in, s, true); err != nil {
		t.Fatal(err)
	}
	if mk := s.Makespan(in); mk != got.makespan {
		t.Fatalf("draft makespan %v, schedule makespan %v", got.makespan, mk)
	}
}
