package malsched

// The benchmark harness reproduces the experiment suite: one benchmark per
// table or figure of the evaluation (the paper is a theory paper, so the
// "tables and figures" are its theorems' bounds, its appendix figure 8, and
// the experiment suite the authors announce in §5). Each benchmark times
// the relevant computation and, on the first iteration, prints the
// experiment's markdown table, so `go test -bench=. -benchmem` regenerates
// every table.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"malsched/internal/analysis"
	"malsched/internal/baseline"
	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/precedence"
	"malsched/internal/schedule"
)

var printOnce sync.Map

func once(key string, f func()) {
	if _, done := printOnce.LoadOrStore(key, true); !done {
		f()
	}
}

// BenchmarkFig8M0Curve — experiment E1: the appendix's figure 8, the
// minimal processor count m₀ for the canonical list guarantee vs θ.
func BenchmarkFig8M0Curve(b *testing.B) {
	thetas := []float64{0.78, 0.82, core.Theta, 0.90, 0.95}
	var pts []analysis.Fig8Point
	for i := 0; i < b.N; i++ {
		pts = analysis.Fig8(thetas, 16, 40, 1)
	}
	once("fig8", func() {
		fmt.Println("\nE1/Fig8: theta -> empirical m0 (paper: m0 = 8 at theta = sqrt(3)/2 ≈ 0.866)")
		for _, p := range pts {
			fmt.Printf("  theta=%.4f  m0=%d\n", p.Theta, p.M0)
		}
	})
}

// BenchmarkTheorem1MalleableList — experiment E2: Theorem 1's bound
// 2−2/(m+1) on random and adversarial workloads.
func BenchmarkTheorem1MalleableList(b *testing.B) {
	type cell struct {
		m             int
		maxRatio, bnd float64
	}
	var cells []cell
	for i := 0; i < b.N; i++ {
		cells = cells[:0]
		for _, m := range []int{2, 4, 6, 10, 16} {
			worst := 0.0
			for s := int64(0); s < 20; s++ {
				in := instance.Mixed(s, 30, m)
				lambda := seqUpperBench(in)
				sch := core.MalleableList(in, lambda)
				if sch == nil {
					b.Fatalf("malleable list rejected λ ≥ OPT (m=%d seed=%d)", m, s)
				}
				if r := sch.Makespan(in) / lambda; r > worst {
					worst = r
				}
			}
			in := instance.LPTAdversarial(m)
			opt := 3.0 * float64(m)
			if sch := core.MalleableList(in, opt); sch != nil {
				if r := sch.Makespan(in) / opt; r > worst {
					worst = r
				}
			}
			cells = append(cells, cell{m, worst, core.RhoList(m)})
		}
	}
	once("thm1", func() {
		fmt.Println("\nE2/Theorem 1: worst measured makespan/λ vs bound 2−2/(m+1)")
		for _, c := range cells {
			fmt.Printf("  m=%2d  worst=%.4f  bound=%.4f  ok=%v\n", c.m, c.maxRatio, c.bnd, c.maxRatio <= c.bnd+1e-9)
		}
	})
}

// BenchmarkTheorem2CanonicalList — experiment E3: Property 3 and Lemma 1
// hold at θ=√3/2 for m ≥ m₀ = 8 on known-optimum instances.
func BenchmarkTheorem2CanonicalList(b *testing.B) {
	var rows []analysis.M0Row
	for i := 0; i < b.N; i++ {
		rows = analysis.M0Empirical(core.Theta, []int{8, 12, 16, 24, 32}, 100, 2)
	}
	once("thm2", func() {
		fmt.Println("\nE3/Theorem 2: Property-3 violations at theta=sqrt(3)/2 (must be 0 for m ≥ 8)")
		for _, r := range rows {
			fmt.Printf("  m=%2d  qualifying=%3d  violations=%d\n", r.M, r.Trials, r.Violations)
		}
	})
}

// BenchmarkTheorem3TwoShelf — experiment E4: the knapsack construction on
// instances whose canonical allotment overflows the machine (q₁ > 0):
// success rate, method mix, makespan ≤ √3λ. KnapsackStress instances admit
// a schedule of length ≈ the squashed-area bound (big tasks stack 3-high,
// 5-wide), so probing there is probing at λ ≈ OPT.
func BenchmarkTheorem3TwoShelf(b *testing.B) {
	methods := map[string]int{}
	built, total, worst := 0, 0, 0.0
	for i := 0; i < b.N; i++ {
		methods = map[string]int{}
		built, total, worst = 0, 0, 0.0
		for s := int64(0); s < 30; s++ {
			m := 8 + int(s)%24
			in := instance.KnapsackStress(s, m)
			lambda := lowerbound.SquashedArea(in)
			total++
			r := core.TwoShelf(in, lambda, core.DefaultParams())
			if r.Schedule == nil {
				continue
			}
			built++
			methods[r.Method]++
			if err := schedule.Validate(in, r.Schedule, true); err != nil {
				b.Fatal(err)
			}
			if ratio := r.Schedule.Makespan(in) / lambda; ratio > worst {
				worst = ratio
			}
		}
	}
	once("thm3", func() {
		fmt.Printf("\nE4/Theorem 3: two-shelf built %d/%d, worst makespan/λ=%.4f (bound √3=%.4f), methods=%v\n",
			built, total, worst, core.Rho, methods)
	})
}

// BenchmarkHeadlineVsBaselines — experiment E5: the paper's algorithm vs
// the two-phase baselines across families (ratios vs certified LB).
func BenchmarkHeadlineVsBaselines(b *testing.B) {
	var rows []analysis.Row
	for i := 0; i < b.N; i++ {
		rows = analysis.Compare([]string{"mixed", "comm-heavy"}, []int{40}, []int{16, 64}, 3, 1)
	}
	once("e5", func() {
		fmt.Println("\nE5/headline: ratios vs certified lower bound")
		analysis.WriteMarkdown(os.Stdout, rows)
	})
}

// BenchmarkKnownOptRatios — experiment E5b: true ratios (OPT = 1).
func BenchmarkKnownOptRatios(b *testing.B) {
	var rows []analysis.Row
	for i := 0; i < b.N; i++ {
		rows = analysis.CompareKnownOpt([]int{8, 32}, 10, 3)
	}
	once("e5b", func() {
		fmt.Println("\nE5b/true ratios on known-optimum instances (ratio = makespan, OPT = 1)")
		analysis.WriteMarkdown(os.Stdout, rows)
	})
}

// BenchmarkScalingN — experiment E6: runtime scaling with the task count.
func BenchmarkScalingN(b *testing.B) {
	for _, n := range []int{50, 200, 800, 3200} {
		in := instance.Mixed(1, n, 64)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Approximate(in, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingM — experiment E6: runtime scaling with the machine size
// (exercises the knapsack DP capacity dimension).
func BenchmarkScalingM(b *testing.B) {
	for _, m := range []int{16, 64, 256, 1024} {
		in := instance.Mixed(1, 200, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Approximate(in, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDualSearchConvergence — experiment E7: dichotomic-search probes
// versus the tolerance ε (≈ log₂(range/ε) + doubling phase).
func BenchmarkDualSearchConvergence(b *testing.B) {
	in := instance.Mixed(5, 100, 32)
	type point struct {
		eps    float64
		probes int
		ratio  float64
	}
	var pts []point
	for i := 0; i < b.N; i++ {
		pts = pts[:0]
		for _, eps := range []float64{0.3, 0.1, 0.03, 0.01, 0.003, 0.001} {
			res, err := core.Approximate(in, core.Options{Eps: eps})
			if err != nil {
				b.Fatal(err)
			}
			pts = append(pts, point{eps, res.Probes, res.Ratio()})
		}
	}
	once("e7", func() {
		fmt.Println("\nE7/convergence: eps -> probes, certified ratio")
		for _, p := range pts {
			fmt.Printf("  eps=%.3f  probes=%2d  ratio=%.4f\n", p.eps, p.probes, p.ratio)
		}
	})
}

// BenchmarkPrasannaMusicus — experiment E8: discrete schedules versus the
// continuous optimal-control optimum on power-law profiles.
func BenchmarkPrasannaMusicus(b *testing.B) {
	type row struct {
		alpha float64
		ratio float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, alpha := range []float64{0.5, 0.7, 0.9, 1.0} {
			worst := 0.0
			for s := int64(0); s < 5; s++ {
				in := instance.PowerLawFamily(s, 40, 32, alpha)
				works := make([]float64, in.N())
				for j, t := range in.Tasks {
					works[j] = t.SeqTime()
				}
				cont := lowerbound.ContinuousPM(works, alpha, in.M)
				res, err := core.Approximate(in, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if r := res.Makespan / cont; r > worst {
					worst = r
				}
			}
			rows = append(rows, row{alpha, worst})
		}
	}
	once("e8", func() {
		fmt.Println("\nE8/Prasanna–Musicus: worst discrete/continuous ratio per alpha")
		for _, r := range rows {
			fmt.Printf("  alpha=%.2f  worst ratio=%.4f\n", r.alpha, r.ratio)
		}
	})
}

// BenchmarkMonotonyAblation — experiment E9: what the monotone hypothesis
// buys. Non-monotone profiles void the certificates; repairing them with
// Monotonize restores the guarantee.
func BenchmarkMonotonyAblation(b *testing.B) {
	var rawWorst, fixedWorst float64
	var rawUnproven int
	for i := 0; i < b.N; i++ {
		rawWorst, fixedWorst, rawUnproven = 0, 0, 0
		for s := int64(0); s < 10; s++ {
			raw := instance.NonMonotoneMixed(s, 30, 16, 0.5, false)
			fixed := instance.NonMonotoneMixed(s, 30, 16, 0.5, true)
			if res, err := core.Approximate(raw, core.Options{}); err == nil {
				if r := res.Ratio(); r > rawWorst {
					rawWorst = r
				}
				rawUnproven += res.UnprovenRejects
			}
			res, err := core.Approximate(fixed, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if r := res.Ratio(); r > fixedWorst {
				fixedWorst = r
			}
			if res.UnprovenRejects != 0 {
				b.Fatal("monotone instance hit an unproven rejection")
			}
		}
	}
	once("e9", func() {
		fmt.Printf("\nE9/ablation: raw non-monotone worst ratio=%.4f (unproven rejects=%d); repaired worst ratio=%.4f (√3=%.4f)\n",
			rawWorst, rawUnproven, fixedWorst, core.Rho)
	})
}

// BenchmarkOceanRounds — experiment E10: repeated rescheduling of the
// adaptive-mesh workload; per-round cost and idle fraction vs baseline.
func BenchmarkOceanRounds(b *testing.B) {
	var mrt, seq float64
	for i := 0; i < b.N; i++ {
		mrt, seq = 0, 0
		for r := 0; r < 6; r++ {
			in := instance.OceanMesh(7, 32, 4, r)
			res, err := core.Approximate(in, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			mrt += res.Makespan
			base := baseline.SeqLPT(in)
			seq += base.Makespan(in)
		}
	}
	once("e10", func() {
		fmt.Printf("\nE10/ocean: 6 rounds, total makespan mrt=%.3f vs seq-lpt=%.3f (%.2fx)\n", mrt, seq, seq/mrt)
	})
}

// BenchmarkDualStep measures one dual-approximation probe (the unit of all
// searches). The tables are compiled outside the loop, so the benchmark
// does not time instance.Compile, which BenchmarkCompile prices on its own.
func BenchmarkDualStep(b *testing.B) {
	in := instance.Mixed(2, 200, 64)
	lambda := seqUpperBench(in)
	p := core.DefaultParams()
	c, sc := instance.Compile(in), core.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := (core.DualProber{}).Probe(in, c, lambda, p, sc, nil); r.Schedule == nil {
			b.Fatal("rejected λ ≥ OPT")
		}
	}
}

// BenchmarkHotProbeCompiled is the steady-state cost of one
// dual-approximation probe in a memo-free re-solve loop (shared Scratch,
// tables compiled once). The custom ns/probe metric is what
// BENCH_engine.json's probe_ns_hot tracks.
func BenchmarkHotProbeCompiled(b *testing.B) {
	in := instance.Mixed(2, 200, 64)
	opts := core.Options{Scratch: core.NewScratch(), Compiled: instance.Compile(in)}
	res, err := core.Approximate(in, opts) // warm scratch + segment caches
	if err != nil {
		b.Fatal(err)
	}
	probes := res.Probes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Approximate(in, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/probe")
}

// BenchmarkCompile prices the compile-once step the hot path amortises.
func BenchmarkCompile(b *testing.B) {
	in := instance.Mixed(2, 200, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := instance.Compile(in); c.N() != in.N() {
			b.Fatal("bad compile")
		}
	}
}

// BenchmarkGantt covers the rendering path used by the tools.
func BenchmarkGantt(b *testing.B) {
	in := instance.Mixed(2, 100, 32)
	res, err := core.Approximate(in, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := schedule.Gantt(in, res.Schedule, 100); len(g) == 0 {
			b.Fatal("empty gantt")
		}
	}
}

// seqUpperBench is the all-sequential LPT makespan: a certified λ ≥ OPT.
func seqUpperBench(in *instance.Instance) float64 {
	loads := make([]float64, in.M)
	var mk float64
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if in.Tasks[order[j]].SeqTime() > in.Tasks[order[i]].SeqTime() {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
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

// The engine benchmarks below track the batch-scheduling hot path against
// the seed path (a plain Schedule call per instance). The acceptance bar of
// the engine PR — and the regression bar for every later one — is that the
// pooled path (EngineSingleNoMemo) is no slower than the seed path
// (ScheduleSingle) and the memoised path (EngineMemoHit) is far below both.
// Run with -benchmem to see the allocation trajectory.

// BenchmarkScheduleSingle — the seed path: one facade Schedule per
// iteration, no cross-call reuse.
func BenchmarkScheduleSingle(b *testing.B) {
	in := instance.Mixed(3, 100, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSingleNoMemo — the pooled path: same pipeline through an
// Engine with memoisation disabled, so every iteration solves from scratch
// but reuses the worker's probe buffers.
func BenchmarkEngineSingleNoMemo(b *testing.B) {
	in := instance.Mixed(3, 100, 32)
	eng := NewEngine(EngineOptions{Workers: 1, MemoCapacity: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineMemoHit — the memoised path: after one warming call every
// iteration is a memo hit plus a plan clone.
func BenchmarkEngineMemoHit(b *testing.B) {
	in := instance.Mixed(3, 100, 32)
	eng := NewEngine(EngineOptions{Workers: 1})
	if _, err := eng.Schedule(in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatch — a 64-instance batch through the worker pool with
// memoisation disabled; ns/op is per batch, so divide by 64 for the
// per-instance cost under concurrency.
func BenchmarkEngineBatch(b *testing.B) {
	ins := make([]*Instance, 64)
	for i := range ins {
		ins[i] = instance.Mixed(int64(i), 60, 32)
	}
	eng := NewEngine(EngineOptions{MemoCapacity: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range eng.ScheduleBatch(ins) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}

// The DAG solve benchmarks mirror the hot-probe one: the steady-state cost
// of one full DAG solve in a re-solve loop (tables compiled once, shared
// Scratch carrying the λ-segment cache). BENCH_engine.json's dag section
// (solve_ns_hot, allocs_per_solve) tracks exactly this loop.
func benchmarkDAGSolve(b *testing.B, crossover bool) {
	in := instance.Mixed(9, 60, 16)
	g, err := precedence.NewGraph(in, precedence.RandomEdges(9, in.N(), 0.3))
	if err != nil {
		b.Fatal(err)
	}
	opts := precedence.Options{Scratch: core.NewScratch(), Compiled: instance.Compile(in)}
	solve := g.Solve
	if crossover {
		solve = g.SolveCrossover
	}
	if _, err := solve(opts); err != nil { // warm the scratch + segment cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDAGSolveCompiled(b *testing.B) { benchmarkDAGSolve(b, false) }

func BenchmarkDAGCrossoverCompiled(b *testing.B) { benchmarkDAGSolve(b, true) }

// BenchmarkDAGPipeline covers the §5 future-work extension: scheduling a
// precedence-constrained fork-join pipeline (internal/precedence).
func BenchmarkDAGPipeline(b *testing.B) {
	in := instance.Mixed(9, 24, 16)
	succ := make([][]int, in.N())
	// Fork-join layers of width 4.
	for i := 0; i+4 < in.N(); i++ {
		succ[i] = []int{i + 4}
	}
	g, err := precedence.NewGraph(in, succ)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := g.Solve(precedence.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Schedule.Makespan(in) / g.LowerBound()
	}
	once("dag", func() {
		fmt.Printf("\nE-DAG (§5 future work): fork-join pipeline ratio vs certified DAG bound = %.4f\n", ratio)
	})
}
