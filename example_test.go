package malsched_test

import (
	"encoding/json"
	"fmt"
	"log"

	"malsched"
)

// The package comment's quickstart, verbatim — this example compiles and
// asserts the exact code shown there.
func ExampleSchedule_quickstart() {
	tasks := []malsched.Task{
		malsched.Amdahl("solver", 120, 0.05, 64),
		malsched.PowerLaw("render", 80, 0.8, 64),
		malsched.Sequential("io", 15, 64),
	}
	in, err := malsched.NewInstance("demo", 64, tasks)
	if err != nil {
		log.Fatal(err)
	}
	res, err := malsched.Schedule(in, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan %.3f, certified ratio %.3f\n", res.Makespan, res.Ratio())
	// Output:
	// makespan 15.000, certified ratio 1.000
}

// Batches go through an Engine: same results as sequential Schedule calls,
// with worker-pool concurrency, pooled scratch buffers and memoisation of
// repeated workloads.
func ExampleEngine() {
	// One worker keeps the memo-hit count deterministic for the example;
	// with concurrent workers identical instances may race past the memo.
	eng := malsched.NewEngine(malsched.EngineOptions{Workers: 1})
	batch := make([]*malsched.Instance, 3)
	for i := range batch {
		in, err := malsched.NewInstance(fmt.Sprintf("job%d", i), 16, []malsched.Task{
			malsched.Linear("a", 8, 16),
			malsched.Amdahl("b", 12, 0.1, 16),
			malsched.Sequential("c", 2, 16),
		})
		if err != nil {
			log.Fatal(err)
		}
		batch[i] = in
	}
	for _, r := range eng.ScheduleBatch(batch) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("%s: ratio %.3f\n", r.Instance.Name, r.Result.Ratio())
	}
	stats := eng.Stats()
	fmt.Printf("memo hits: %d of %d\n", stats.MemoHits, stats.Scheduled)
	// Output:
	// job0: ratio 1.000
	// job1: ratio 1.000
	// job2: ratio 1.000
	// memo hits: 2 of 3
}

// The basic flow: describe tasks by speedup profile, build an instance,
// schedule, read the certificates.
func ExampleSchedule() {
	const m = 8
	tasks := []malsched.Task{
		malsched.Linear("a", 8, m),     // perfect speedup, work 8
		malsched.Linear("b", 8, m),     // perfect speedup, work 8
		malsched.Sequential("c", 2, m), // cannot parallelise
	}
	in, err := malsched.NewInstance("example", m, tasks)
	if err != nil {
		log.Fatal(err)
	}
	res, err := malsched.Schedule(in, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan ≤ √3·LB: %v\n", res.Makespan <= 1.7321*res.LowerBound)
	fmt.Printf("schedule is valid: %v\n", malsched.Validate(in, res.Plan, true) == nil)
	// Output:
	// makespan ≤ √3·LB: true
	// schedule is valid: true
}

// Measured time tables are validated against the monotone hypothesis;
// repair a violating profile with Monotonize before constructing the task.
func ExampleNewTask() {
	_, err := malsched.NewTask("raw", []float64{4.0, 2.5, 2.9}) // t(3) > t(2)
	fmt.Println("raw profile rejected:", err != nil)

	fixed, err := malsched.NewTask("fixed", malsched.Monotonize([]float64{4.0, 2.5, 2.9}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("repaired max processors:", fixed.MaxProcs())
	// Output:
	// raw profile rejected: true
	// repaired max processors: 3
}

// Baselines run through the same entry point, for comparisons.
func ExampleSchedule_baseline() {
	const m = 8
	in, err := malsched.NewInstance("cmp", m, []malsched.Task{
		malsched.Amdahl("x", 10, 0.2, m),
		malsched.Amdahl("y", 12, 0.1, m),
	})
	if err != nil {
		log.Fatal(err)
	}
	ours, err := malsched.Schedule(in, nil)
	if err != nil {
		log.Fatal(err)
	}
	twy, err := malsched.Schedule(in, &malsched.Options{Solver: "twy-ffdh"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper ≤ baseline: %v\n", ours.Makespan <= twy.Makespan+1e-9)
	// Output:
	// paper ≤ baseline: true
}

// Precedence constraints go in as successor lists through Options.Edges,
// solved by the "dag" solver; VerifyPrecedence re-checks the plan against
// the edges independently of the solver. The workflow: ingest fans out to
// four transforms, which join into training, then evaluation and a report.
func ExampleSchedule_dag() {
	const m = 24
	tasks := []malsched.Task{
		malsched.PowerLaw("ingest", 20, 0.9, m),
		malsched.PowerLaw("transform-a", 14, 0.55, m),
		malsched.PowerLaw("transform-b", 11, 0.55, m),
		malsched.PowerLaw("transform-c", 9, 0.55, m),
		malsched.PowerLaw("transform-d", 16, 0.55, m),
		malsched.Amdahl("train", 60, 0.08, m),
		malsched.PowerLaw("evaluate", 10, 0.7, m),
		malsched.Sequential("report", 2, m),
	}
	in, err := malsched.NewInstance("pipeline", m, tasks)
	if err != nil {
		log.Fatal(err)
	}
	edges := [][]int{
		{1, 2, 3, 4},       // ingest → every transform
		{5}, {5}, {5}, {5}, // transforms → train
		{6}, // train → evaluate
		{7}, // evaluate → report
		nil,
	}
	res, err := malsched.Schedule(in, &malsched.Options{Solver: "dag", Edges: edges})
	if err != nil {
		log.Fatal(err)
	}
	if err := malsched.VerifyPrecedence(in, edges, res.Plan); err != nil {
		log.Fatal(err)
	}
	// The naive policy runs every stage on the whole machine in turn.
	var naive float64
	for _, t := range in.Tasks {
		naive += t.MinTime()
	}
	fmt.Printf("%s: makespan %.2f, certified ≥ %.2f\n", res.Branch, res.Makespan, res.LowerBound)
	fmt.Printf("whole machine per stage: %.2f\n", naive)
	// Output:
	// dag-list: makespan 16.81, certified ≥ 14.11
	// whole machine per stage: 20.03
}

// A portfolio runs every named solver on the instance and keeps the best
// certified result; Result.Solver names the member that won. On a tiny
// instance the exhaustive "exact" member enters and wins with ratio 1; at
// scale it bows out and the others race.
func ExampleSchedule_portfolio() {
	small, err := malsched.NewInstance("render-small", 6, []malsched.Task{
		malsched.Amdahl("shadows", 30, 0.10, 6),
		malsched.PowerLaw("raytrace", 40, 0.85, 6),
		malsched.PowerLaw("denoise", 18, 0.60, 6),
		malsched.Sequential("mux", 5, 6),
	})
	if err != nil {
		log.Fatal(err)
	}
	large, err := malsched.NewInstance("render-large", 64, []malsched.Task{
		malsched.Amdahl("shadows", 300, 0.05, 64),
		malsched.Amdahl("geometry", 180, 0.30, 64),
		malsched.PowerLaw("raytrace", 400, 0.90, 64),
		malsched.PowerLaw("denoise", 180, 0.70, 64),
		malsched.PowerLaw("upscale", 120, 0.55, 64),
		malsched.Sequential("mux", 25, 64),
		malsched.Sequential("audit", 15, 64),
		malsched.Sequential("upload", 10, 64),
		malsched.Sequential("notify", 1, 64),
	})
	if err != nil {
		log.Fatal(err)
	}
	members := []string{"mrt", "twy-ffdh", "seq-lpt", "exact"}
	for _, in := range []*malsched.Instance{small, large} {
		res, err := malsched.Schedule(in, &malsched.Options{Portfolio: members})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: winner %s, makespan %.3f, certified ratio %.3f\n",
			in.Name, res.Solver, res.Makespan, res.Ratio())
	}
	// Output:
	// render-small: winner exact, makespan 19.934, certified ratio 1.000
	// render-large: winner mrt, makespan 57.405, certified ratio 1.002
}

// A Plan marshals to the scheduling service's plan object: the same keys
// as a /v1/schedule response's "plan", proc_set only on a placement that
// lists its processors.
func ExamplePlan_json() {
	plan := malsched.Plan{Algorithm: "dag-list", Placements: []malsched.Placement{
		{Task: 0, Start: 0, Width: 2, First: 0},
		{Task: 1, Start: 1.5, Width: 2, First: -1, ProcSet: []int{1, 3}},
	}}
	out, err := json.Marshal(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	// Output:
	// {"algorithm":"dag-list","placements":[{"task":0,"start":0,"width":2,"first":0},{"task":1,"start":1.5,"width":2,"first":-1,"proc_set":[1,3]}]}
}
