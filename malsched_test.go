package malsched

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"malsched/internal/instance"
)

func demoInstance(t *testing.T) *Instance {
	t.Helper()
	tasks := []Task{
		Amdahl("solver", 12, 0.05, 8),
		PowerLaw("render", 8, 0.8, 8),
		Sequential("io", 1.5, 8),
		Linear("mesh", 6, 8),
		CommOverhead("halo", 4, 0.05, 8),
	}
	in, err := NewInstance("demo", 8, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestScheduleEndToEnd(t *testing.T) {
	in := demoInstance(t)
	res, err := Schedule(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, res.Plan, true); err != nil {
		t.Fatal(err)
	}
	if res.Ratio() > math.Sqrt(3)*1.002 {
		t.Fatalf("certified ratio %v exceeds √3", res.Ratio())
	}
	if res.LowerBound <= 0 || res.Makespan < res.LowerBound-1e-9 {
		t.Fatalf("bounds inconsistent: %v / %v", res.Makespan, res.LowerBound)
	}
	if res.Branch == "" {
		t.Fatal("missing branch name")
	}
	g := res.Gantt(in, 60)
	if !strings.Contains(g, "P00") || !strings.Contains(g, "legend:") {
		t.Fatalf("gantt rendering broken:\n%s", g)
	}
}

func TestScheduleOptionsCompact(t *testing.T) {
	in := demoInstance(t)
	plain, err := Schedule(in, &Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Schedule(in, &Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Makespan > plain.Makespan+1e-9 {
		t.Fatalf("compaction increased makespan")
	}
	// The compacted plan is still a complete, contiguous, validated plan
	// with consistent certificates.
	if err := Validate(in, comp.Plan, true); err != nil {
		t.Fatalf("compacted plan invalid: %v", err)
	}
	if comp.LowerBound <= 0 || comp.Makespan < comp.LowerBound-1e-9 {
		t.Fatalf("compacted certificates inconsistent: %v / %v", comp.Makespan, comp.LowerBound)
	}
}

// Validate must reject every way a plan can be corrupted after scheduling.
func TestValidateRejectsCorruptedPlan(t *testing.T) {
	in := demoInstance(t)
	res, err := Schedule(in, nil)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(p *Plan)) {
		t.Helper()
		cp := &Plan{Algorithm: res.Plan.Algorithm, Placements: append([]Placement(nil), res.Plan.Placements...)}
		mutate(cp)
		if err := Validate(in, cp, true); err == nil {
			t.Fatalf("%s: corrupted plan passed validation", name)
		}
	}

	corrupt("drop a task", func(p *Plan) {
		p.Placements = p.Placements[:len(p.Placements)-1]
	})
	corrupt("duplicate a task", func(p *Plan) {
		p.Placements = append(p.Placements, p.Placements[0])
	})
	corrupt("width beyond profile", func(p *Plan) {
		p.Placements[0].Width = in.Tasks[p.Placements[0].Task].MaxProcs() + 1
	})
	corrupt("processor outside machine", func(p *Plan) {
		p.Placements[0].First = in.M
	})
	corrupt("negative start", func(p *Plan) {
		p.Placements[0].Start = -1
	})
	corrupt("overlap", func(p *Plan) {
		// Stack every placement at time 0 on processor 0.
		for i := range p.Placements {
			p.Placements[i].Start = 0
			p.Placements[i].First = 0
		}
	})

	// The untouched plan still validates after all that.
	if err := Validate(in, res.Plan, true); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleBaselines(t *testing.T) {
	in := demoInstance(t)
	ours, err := Schedule(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"twy-list", "twy-ffdh", "twy-nfdh", "twy-bld", "seq-lpt", "full-parallel"} {
		res, err := Schedule(in, &Options{Solver: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Branch != name {
			t.Fatalf("branch = %q, want %q", res.Branch, name)
		}
		if res.Makespan < ours.LowerBound-1e-9 {
			t.Fatalf("%s beat the certified lower bound", name)
		}
	}
	if _, err := Schedule(in, &Options{Solver: "nope"}); err == nil {
		t.Fatal("want error for unknown baseline")
	}
}

func TestNewTaskValidation(t *testing.T) {
	if _, err := NewTask("bad", []float64{1, 2}); err == nil {
		t.Fatal("want monotony error")
	}
	fixed := Monotonize([]float64{1, 2})
	tk, err := NewTask("fixed", fixed)
	if err != nil {
		t.Fatal(err)
	}
	if tk.MaxProcs() != 2 {
		t.Fatal("repair changed the width")
	}
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance("x", 0, []Task{Sequential("a", 1, 1)}); err == nil {
		t.Fatal("want machine-size error")
	}
	if _, err := NewInstance("x", 2, nil); err == nil {
		t.Fatal("want empty-instance error")
	}
}

func TestLowerBoundExported(t *testing.T) {
	in := demoInstance(t)
	if LowerBound(in) <= 0 {
		t.Fatal("lower bound must be positive")
	}
}

// untimed strips the one wall-clock field of a result, the trace's search
// time, so whole results compare with reflect.DeepEqual.
func untimed(r Result) Result {
	if r.Trace != nil {
		tr := *r.Trace
		tr.SearchNS = 0
		r.Trace = &tr
	}
	return r
}

// The facade engine must return exactly what sequential Schedule calls
// return — every field, the trace included — from Schedule, ScheduleBatch
// and ScheduleStream, preserve batch order, and expose its counters. A
// repeated batch is answered from the memo, which carries no trace.
func TestEngineFacadeMatchesSchedule(t *testing.T) {
	var ins []*Instance
	for name, gen := range instance.Families() {
		for seed := int64(0); seed < 4; seed++ {
			in := gen(seed, 12, 8)
			in.Name = name + in.Name
			ins = append(ins, in)
		}
	}
	for _, opts := range []*Options{nil, {Trace: true}} {
		eo := EngineOptions{Workers: 4}
		if opts != nil {
			eo.Schedule = *opts
		}
		want := make([]Result, len(ins))
		for i, in := range ins {
			r, err := Schedule(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Trace != nil; got != eo.Schedule.Trace {
				t.Fatalf("%s: Schedule trace present = %v with Options.Trace = %v", in.Name, got, eo.Schedule.Trace)
			}
			want[i] = untimed(r)
		}
		check := func(via string, i int, got Result) {
			t.Helper()
			if !reflect.DeepEqual(untimed(got), want[i]) {
				t.Fatalf("trace=%v %s %s: engine result differs from Schedule:\n got %+v\nwant %+v",
					eo.Schedule.Trace, via, ins[i].Name, got, want[i])
			}
		}

		eng := NewEngine(eo)
		for i, in := range ins {
			r, err := eng.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			check("Schedule", i, r)
		}

		eng = NewEngine(eo)
		for i, r := range eng.ScheduleBatch(ins) {
			if r.Err != nil {
				t.Fatalf("%s: %v", ins[i].Name, r.Err)
			}
			if r.Index != i || r.Instance != ins[i] || r.FromMemo {
				t.Fatalf("batch result %d misrouted or memoised", i)
			}
			check("ScheduleBatch", i, r.Result)
		}
		st := eng.Stats()
		if st.Scheduled != uint64(len(ins)) || st.Errors != 0 || st.MemoHits != 0 {
			t.Fatalf("unexpected stats: %+v", st)
		}
		for i, r := range eng.ScheduleBatch(ins) {
			if r.Err != nil || !r.FromMemo {
				t.Fatalf("%s: repeated batch not a memo hit (err %v)", ins[i].Name, r.Err)
			}
			if r.Result.Trace != nil {
				t.Fatalf("%s: memo hit carries a trace", ins[i].Name)
			}
			hit := want[i]
			hit.Trace = nil
			if !reflect.DeepEqual(r.Result, hit) {
				t.Fatalf("%s: memo hit differs from Schedule", ins[i].Name)
			}
		}

		eng = NewEngine(eo)
		jobs := make(chan *Instance, len(ins))
		for _, in := range ins {
			jobs <- in
		}
		close(jobs)
		seen := 0
		for r := range eng.ScheduleStream(jobs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Instance != ins[r.Index] {
				t.Fatalf("stream result %d misrouted", r.Index)
			}
			check("ScheduleStream", r.Index, r.Result)
			seen++
		}
		if seen != len(ins) {
			t.Fatalf("stream emitted %d results, want %d", seen, len(ins))
		}
	}
}

func TestEngineFacadeStreamAndBaseline(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 2, Schedule: Options{Solver: "seq-lpt"}})
	jobs := make(chan *Instance, 4)
	for seed := int64(0); seed < 4; seed++ {
		jobs <- instance.Mixed(seed, 10, 8)
	}
	close(jobs)
	count := 0
	for r := range eng.ScheduleStream(jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Result.Branch != "seq-lpt" {
			t.Fatalf("branch = %q", r.Result.Branch)
		}
		count++
	}
	if count != 4 {
		t.Fatalf("stream emitted %d results, want 4", count)
	}
}

// The facade must schedule every generator family without errors — a smoke
// test that the public surface and internal generators stay compatible.
func TestScheduleAllFamilies(t *testing.T) {
	for name, gen := range instance.Families() {
		in := gen(5, 15, 12)
		res, err := Schedule(in, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Ratio() > math.Sqrt(3)*1.002 {
			t.Fatalf("%s: ratio %v", name, res.Ratio())
		}
	}
}

// The solver registry through the facade: named solvers, the portfolio,
// and the reported winner.
func TestScheduleSolverRegistry(t *testing.T) {
	in := demoInstance(t)

	if got := Solvers(); len(got) < 9 {
		t.Fatalf("Solvers() = %v, want at least the 9 builtins", got)
	}

	mrt, err := Schedule(in, &Options{Solver: "mrt"})
	if err != nil {
		t.Fatal(err)
	}
	if mrt.Solver != "mrt" {
		t.Fatalf("Solver = %q, want mrt", mrt.Solver)
	}

	viaSolver, err := Schedule(in, &Options{Solver: "seq-lpt"})
	if err != nil {
		t.Fatal(err)
	}
	if viaSolver.Solver != "seq-lpt" {
		t.Fatalf("Solver = %q, want seq-lpt", viaSolver.Solver)
	}

	// A portfolio never loses to any member and reports the winner.
	port, err := Schedule(in, &Options{Portfolio: []string{"mrt", "twy-ffdh", "seq-lpt"}})
	if err != nil {
		t.Fatal(err)
	}
	if port.Makespan > mrt.Makespan+1e-12 {
		t.Fatalf("portfolio makespan %v worse than mrt's %v", port.Makespan, mrt.Makespan)
	}
	if port.Solver == "" || port.Solver == "portfolio" {
		t.Fatalf("portfolio winner = %q, want a member name", port.Solver)
	}
	if err := Validate(in, port.Plan, false); err != nil {
		t.Fatal(err)
	}

	if _, err := Schedule(in, &Options{Solver: "no-such"}); err == nil {
		t.Fatal("want error for unknown solver")
	}
	if _, err := Schedule(in, &Options{Portfolio: []string{"mrt", "no-such"}}); err == nil {
		t.Fatal("want error for unknown portfolio member")
	}
}

// registerTestSolver guards the init-time registration so the test survives
// multiple runs in one process (-cpu lists, -count).
var registerTestSolver sync.Once

// External solvers registered through the facade run like builtins, alone
// and as portfolio members.
func TestRegisterSolverExternal(t *testing.T) {
	registerTestSolver.Do(registerSeqStack)

	in := demoInstance(t)
	res, err := Schedule(in, &Options{Solver: "test-seq-stack"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != "test-seq-stack" || res.Branch != "test-seq-stack" {
		t.Fatalf("provenance = %q/%q", res.Solver, res.Branch)
	}
	if err := Validate(in, res.Plan, false); err != nil {
		t.Fatal(err)
	}

	port, err := Schedule(in, &Options{Portfolio: []string{"test-seq-stack", "mrt"}})
	if err != nil {
		t.Fatal(err)
	}
	if port.Solver != "mrt" {
		t.Fatalf("winner = %q, want mrt to beat the stacked straw man", port.Solver)
	}
}

func registerSeqStack() {
	RegisterSolver("test-seq-stack", func(in *Instance, opts Options) (Result, error) {
		// Every task sequential on processor 0, stacked back to back: a
		// deliberately weak but valid plan with the exported bound.
		p := &Plan{Algorithm: "test-seq-stack"}
		var t0 float64
		for i := range in.Tasks {
			p.Placements = append(p.Placements, Placement{Task: i, Start: t0, Width: 1, First: 0})
			t0 += in.Tasks[i].SeqTime()
		}
		return Result{Plan: p, Makespan: t0, LowerBound: LowerBound(in)}, nil
	})
}
