// Command msbench pins the paper algorithm's answers on a declarative grid.
// Its default mode runs a scenario grid (profile family × task count ×
// machine size × solver) with fixed seeds and writes BENCH_engine.json,
// whose schema is documented in docs/BENCHMARKS.md. Every column is a pure
// function of the code and the seed: per cell the certified ratios, the
// makespans and the probe count of the dual search. The solver dimension
// crosses the paper algorithm ("mrt") with the default solver portfolio.
// A replan_churn section plays online arrival traces through the
// simulator's replan-on-arrival policy warm (lineage-threaded replanning)
// and cold, and counts the probes each mode pays. A dag section adds the
// precedence-constrained family axis: seeded instances under chain /
// out-tree / random DAG shapes solved with both edge-aware registry
// solvers, pinned by certificate bits and plan hashes.
//
// Nothing here is timed; go run ./bench and the Go benchmarks measure
// time and allocation. Two artifacts compare with cmp or diff, and
// TestEngineArtifactIsCurrent holds the committed one to a fresh run.
//
// Usage:
//
//	msbench [-out BENCH_engine.json] [-quick] [-seed 1]
//	msbench -tables [-quick] [-seed 1]
//
// -tables switches to the legacy experiment suite, which prints its
// markdown tables (deterministic in the seed). -quick shrinks either grid
// for a fast smoke run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strconv"

	"malsched"
	"malsched/internal/analysis"
	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/sim"
	"malsched/internal/workload"
)

// Schema identifies the BENCH_engine.json layout; bump on breaking change.
// v2 added the solver dimension and probe-throughput fields, v3 the
// compiled-layer timing columns, v4 the replan_churn section, v5 the dag
// section and v6 its timing columns; v7 dropped the compiled dimension
// with the legacy path. v8 keeps only what the code and the seed decide:
// every timing and allocation column is gone, and with them the host- and
// pass-keyed fields (go_version, goos, goarch, workers, repeats, instances,
// parallelism). Every retained column reads as it did in v7.
const Schema = "malsched/bench-engine/v8"

// defaultSeed is the -seed default, the seed of the committed artifact.
const defaultSeed = 1

// scenarioResult is one cell of the declarative grid — a workload (family,
// n, m) under one registered solver ("mrt", "portfolio") — and its outcome
// over the cell's seeded instances; field semantics are specified in
// docs/BENCHMARKS.md.
type scenarioResult struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Solver string `json:"solver"`

	// ProbesCold counts dual-approximation steps over the cell's solves
	// (named for v7's cold pass, the one pass that counted them).
	ProbesCold  int64   `json:"probes_cold"`
	RatioMean   float64 `json:"ratio_mean"`
	RatioMax    float64 `json:"ratio_max"`
	MakespanSum float64 `json:"makespan_sum"`
	Errors      int     `json:"errors"`
}

// churnCell is one replan-churn workload: a Poisson arrival trace played
// through the replan-on-arrival policy under one preemption model, once
// warm (the default lineage-threaded replanning) and once cold
// (Config.ColdReplan). The traces are chosen contended enough that every
// replan is a multi-probe dual search — a lone accepting probe has
// nothing for the warm path to synthesize.
type churnCell struct {
	Seed    int64
	N, M    int
	Rate    float64
	Preempt string
}

func (c churnCell) name() string { return fmt.Sprintf("poisson-mixed-%d", c.N) }

// churnResult is one replan_churn row; schedules are bit-identical across
// the two modes (the simulator guarantees it), so the row reports only
// what each mode paid.
type churnResult struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Preempt  string `json:"preempt"`
	// Replans counts planning-kernel invocations (identical warm vs cold).
	Replans int `json:"replans"`
	// ProbesWarm/ProbesCold are the total dual-search probes each mode
	// paid across the run's replans; Synthesized is the probe outcomes the
	// warm mode resolved from carried state without a dual step.
	ProbesWarm  int `json:"probes_warm"`
	ProbesCold  int `json:"probes_cold"`
	Synthesized int `json:"synthesized"`
}

// dagResult is one precedence-constrained cell of the dag section: a
// seeded instance under one DAG shape and one edge-aware solver, a pure
// function of (family, n, m, seed, shape, solver). Certificates are
// recorded as hex floats (exact bits); plan_hash is FNV-1a over every
// placement.
type dagResult struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Seed   int64  `json:"seed"`
	// Shape names the DAG generator: chain, out-tree (arity 2), or
	// random-p (seeded forward-edge density p).
	Shape  string `json:"shape"`
	Solver string `json:"solver"`
	// Makespan and Lower are the two-phase heuristic's certificate pair:
	// the schedule's makespan and the certified DAG lower bound
	// max(Σ w_i(1)/m, full-speed critical path). Ratio is their quotient —
	// an empirical quality column, not an approximation guarantee (the
	// paper's √3 bound does not extend to general precedence).
	Makespan string  `json:"makespan"` // hex float: exact bits
	Lower    string  `json:"lower"`    // hex float: exact bits
	Ratio    float64 `json:"ratio"`
	PlanHash string  `json:"plan_hash"`
}

// report is the full BENCH_engine.json document.
type report struct {
	Schema           string           `json:"schema"`
	Seed             int64            `json:"seed"`
	SeedsPerScenario int              `json:"seeds_per_scenario"`
	Scenarios        []scenarioResult `json:"scenarios"`
	// ReplanChurn compares warm-start vs cold replanning on online
	// replan-on-arrival workloads; see churnResult.
	ReplanChurn []churnResult `json:"replan_churn"`
	// DAG is the precedence-constrained section; see dagResult.
	DAG []dagResult `json:"dag"`
}

// write encodes the report as the artifact's bytes.
func (r *report) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func main() {
	tables := flag.Bool("tables", false, "legacy mode: print the experiment suite's markdown tables")
	quick := flag.Bool("quick", false, "small grid for a fast run")
	seed := flag.Int64("seed", defaultSeed, "base seed")
	out := flag.String("out", "BENCH_engine.json", "engine mode: output artifact path (- for stdout)")
	flag.Parse()

	if *tables {
		runTables(*quick, *seed)
		return
	}
	if err := runEngineGrid(*quick, *seed, *out); err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		os.Exit(1)
	}
}

// runEngineGrid builds the engine grid and writes it to out.
func runEngineGrid(quick bool, seed int64, out string) error {
	// Open the artifact before running anything: a bad -out path should
	// fail in milliseconds, not after the whole grid has run.
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	rep, err := build(quick, seed)
	if err != nil {
		return err
	}
	if err := rep.write(w); err != nil {
		return err
	}
	if out != "-" {
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "msbench: wrote %s: %d scenarios, %d replan_churn cells, %d dag cells\n",
			out, len(rep.Scenarios), len(rep.ReplanChurn), len(rep.DAG))
	}
	return nil
}

// build runs the whole engine grid: the scenarios, the replan-churn cells
// and the dag cells.
func build(quick bool, seed int64) (*report, error) {
	seeds := 4
	if quick {
		seeds = 2
	}
	rep := &report{Schema: Schema, Seed: seed, SeedsPerScenario: seeds}
	gens := instance.Families()
	for _, r := range grid(quick) {
		ins := make([]*malsched.Instance, seeds)
		for i := range ins {
			ins[i] = gens[r.Family](seed+int64(i), r.N, r.M)
		}
		rep.Scenarios = append(rep.Scenarios, runScenario(r, ins))
	}
	var err error
	if rep.ReplanChurn, err = runChurn(quick, seed); err != nil {
		return nil, err
	}
	if rep.DAG, err = runDAG(quick, seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// grid returns the declarative scenario grid: every workload cell crossed
// with the solver dimension — the paper algorithm and the default
// portfolio. Every scenario is a pure function of (family, n, m, seed), so
// the artifact is exactly regenerable.
func grid(quick bool) []scenarioResult {
	families := []string{"mixed", "random-monotone", "comm-heavy", "wide-parallel", "powerlaw-0.7"}
	ns := []int{25, 100, 400}
	ms := []int{16, 64, 256}
	if quick {
		families = families[:2]
		ns = []int{20, 60}
		ms = []int{8, 32}
	}
	var g []scenarioResult
	for _, f := range families {
		for _, n := range ns {
			for _, m := range ms {
				for _, solver := range []string{"mrt", "portfolio"} {
					g = append(g, scenarioResult{Family: f, N: n, M: m, Solver: solver})
				}
			}
		}
	}
	return g
}

// runScenario schedules the cell's instances once each under its solver and
// sums their certificates into r; a failed instance counts in Errors.
func runScenario(r scenarioResult, ins []*malsched.Instance) scenarioResult {
	for _, in := range ins {
		res, err := malsched.Schedule(in, &malsched.Options{Solver: r.Solver})
		if err != nil {
			r.Errors++
			continue
		}
		r.MakespanSum += res.Makespan
		r.ProbesCold += int64(res.Probes)
		ratio := res.Ratio()
		r.RatioMean += ratio
		if ratio > r.RatioMax {
			r.RatioMax = ratio
		}
	}
	if ok := len(ins) - r.Errors; ok > 0 {
		r.RatioMean /= float64(ok)
	}
	return r
}

// churnCells returns the replan-churn grid: Poisson arrival traces at
// m = 8 crossed with both preemption models. Pure functions of the base
// seed, so the artifact's churn rows are exactly regenerable.
func churnCells(quick bool, seed int64) []churnCell {
	specs := []struct {
		off  int64
		n    int
		rate float64
	}{
		{4, 18, 1.1},
		{8, 30, 1.1},
	}
	if quick {
		specs = specs[:1]
	}
	var cells []churnCell
	for _, sp := range specs {
		for _, pre := range []string{"none", "repartition"} {
			cells = append(cells, churnCell{
				Seed: seed + sp.off, N: sp.n, M: 8, Rate: sp.rate, Preempt: pre,
			})
		}
	}
	return cells
}

// runChurn builds the replan_churn section: every cell's trace is
// simulated warm and cold, each on a fresh private engine so no memo or
// lineage state crosses modes. The warm-start contract is checked on the
// spot — a warm run that pays as many probes as its cold reference is a
// regression the artifact must not paper over.
func runChurn(quick bool, seed int64) ([]churnResult, error) {
	cells := churnCells(quick, seed)
	out := make([]churnResult, 0, len(cells))
	for _, cell := range cells {
		tr, err := workload.Poisson(cell.Seed, cell.N, cell.M, cell.Rate, "mixed")
		if err != nil {
			return nil, fmt.Errorf("churn trace: %w", err)
		}
		var modes [2]sim.Metrics // warm, cold
		for i := range modes {
			res, err := sim.Run(tr, sim.Config{
				Policy:     "replan-on-arrival",
				Preempt:    cell.Preempt,
				Noise:      0.1,
				Seed:       3,
				ColdReplan: i == 1,
			})
			if err != nil {
				return nil, fmt.Errorf("churn run: %w", err)
			}
			modes[i] = res.Metrics
		}
		warm, cold := modes[0], modes[1]
		if warm.Plans != cold.Plans {
			return nil, fmt.Errorf("churn %s/%s: replan count diverged warm=%d cold=%d",
				cell.name(), cell.Preempt, warm.Plans, cold.Plans)
		}
		if warm.Probes >= cold.Probes {
			return nil, fmt.Errorf("churn %s/%s: warm probes %d not below cold %d",
				cell.name(), cell.Preempt, warm.Probes, cold.Probes)
		}
		out = append(out, churnResult{
			Workload:    cell.name(),
			N:           cell.N,
			M:           cell.M,
			Preempt:     cell.Preempt,
			Replans:     warm.Plans,
			ProbesWarm:  warm.Probes,
			ProbesCold:  cold.Probes,
			Synthesized: warm.Synthesized,
		})
	}
	return out, nil
}

// dagShapes returns the DAG-shape dimension: generators from n to
// successor lists. Each is deterministic in (seed, n), so the dag section
// stays a pure function of the grid coordinates.
func dagShapes() []struct {
	name  string
	build func(seed int64, n int) ([][]int, error)
} {
	return []struct {
		name  string
		build func(seed int64, n int) ([][]int, error)
	}{
		{"chain", func(_ int64, n int) ([][]int, error) { return precedence.ChainEdges(n), nil }},
		{"out-tree", func(_ int64, n int) ([][]int, error) { return precedence.OutTreeEdges(n, 2) }},
		{"random-0.3", func(seed int64, n int) ([][]int, error) { return precedence.RandomEdges(seed, n, 0.3), nil }},
	}
}

// runDAG builds the dag section: every precedence cell solved with both
// edge-aware registry solvers, the resulting plan re-checked against the
// plan validator and the predecessor-ordering verifier on the spot (a
// constraint-violating plan must fail the run, not be recorded), and the
// certificates pinned bit-exactly.
func runDAG(quick bool, seed int64) ([]dagResult, error) {
	families := []string{"mixed", "comm-heavy", "wide-parallel"}
	ns := []int{25, 100}
	ms := []int{16, 64}
	seeds := 2
	if quick {
		families = families[:2]
		ns = []int{12}
		ms = []int{8}
		seeds = 1
	}
	gens := instance.Families()
	var out []dagResult
	for _, fam := range families {
		for _, n := range ns {
			for _, m := range ms {
				for s := int64(0); s < int64(seeds); s++ {
					in := gens[fam](seed+s, n, m)
					for _, sh := range dagShapes() {
						edges, err := sh.build(seed+s, n)
						if err != nil {
							return nil, fmt.Errorf("dag shape %s: %w", sh.name, err)
						}
						g, err := precedence.NewGraph(in, edges)
						if err != nil {
							return nil, fmt.Errorf("dag graph %s: %w", sh.name, err)
						}
						for _, sv := range []string{"dag", "dag-crossover"} {
							cell := dagResult{Family: fam, N: n, M: m, Seed: seed + s, Shape: sh.name, Solver: sv}
							if err := dagCell(in, g, edges, &cell); err != nil {
								return nil, fmt.Errorf("dag cell %s/%s/%s: %w", in.Name, sh.name, sv, err)
							}
							out = append(out, cell)
						}
					}
				}
			}
		}
	}
	return out, nil
}

// dagCell solves one (workload, shape, solver) cell from nothing, verifies
// the plan and records its certificate pair and plan hash.
func dagCell(in *malsched.Instance, g *precedence.Graph, edges [][]int, cell *dagResult) error {
	run := g.Solve
	if cell.Solver == "dag-crossover" {
		run = g.SolveCrossover
	}
	res, err := run(precedence.Options{Compiled: instance.Compile(in), Scratch: core.NewScratch()})
	if err != nil {
		return err
	}
	plan := res.Schedule
	if err := malsched.Validate(in, plan, false); err != nil {
		return err
	}
	if err := malsched.VerifyPrecedence(in, edges, plan); err != nil {
		return err
	}
	mk := plan.Makespan(in)
	lb := g.LowerBound()
	cell.Makespan = strconv.FormatFloat(mk, 'x', -1, 64)
	cell.Lower = strconv.FormatFloat(lb, 'x', -1, 64)
	cell.Ratio = mk / lb
	cell.PlanHash = dagPlanHash(plan)
	return nil
}

// dagPlanHash is FNV-1a over the plan's algorithm tag and every placement
// (task, exact start bits, width, first processor, processor set) — the
// same fingerprint the golden snapshot tests pin.
func dagPlanHash(p *malsched.Plan) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|", p.Algorithm)
	for _, pl := range p.Placements {
		fmt.Fprintf(h, "%d:%x:%d:%d:", pl.Task, math.Float64bits(pl.Start), pl.Width, pl.First)
		for _, q := range pl.ProcSet {
			fmt.Fprintf(h, "%d,", q)
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runTables prints the legacy experiment tables. Every table is
// deterministic in the seed, so a run is exactly regenerable.
func runTables(quick bool, seed int64) {
	families := []string{"mixed", "random-monotone", "comm-heavy", "wide-parallel", "powerlaw-0.7"}
	ns := []int{30, 150}
	ms := []int{8, 32, 128}
	seeds := 8
	koMs := []int{8, 16, 32, 64}
	koSeeds := 40
	fig8Trials := 120
	fig8MaxM := 20
	if quick {
		families = families[:2]
		ns = []int{20}
		ms = []int{8, 24}
		seeds = 3
		koMs = []int{8, 16}
		koSeeds = 10
		fig8Trials = 30
		fig8MaxM = 14
	}

	fmt.Println("## E5 — paper's algorithm vs two-phase baselines (ratios vs certified lower bound)")
	fmt.Println()
	analysis.WriteMarkdown(os.Stdout, analysis.Compare(families, ns, ms, seeds, seed))
	fmt.Println()

	fmt.Println("## E5b — true ratios on known-optimum instances (OPT = 1, ratio = makespan)")
	fmt.Println()
	analysis.WriteMarkdown(os.Stdout, analysis.CompareKnownOpt(koMs, koSeeds, seed))
	fmt.Println()

	fmt.Println("## E1 — figure 8: empirical m₀(θ) and Property-3 guarantee margin")
	fmt.Println()
	fmt.Println("The paper's m₀(θ) is the sufficient bound of the appendix's worst-case")
	fmt.Println("analysis (m₀ = 8 at θ = √3/2 after refinement). The reproduction measures")
	fmt.Println("the empirical m₀ (first m with zero violations on known-optimum ensembles)")
	fmt.Println("and the worst completion of the first two levels relative to the 2θλ budget.")
	fmt.Println()
	fmt.Println("| θ | empirical m₀ | worst level-2 end / 2θλ |")
	fmt.Println("|---|---|---|")
	thetas := []float64{0.76, 0.80, 0.84, core.Theta, 0.90, 0.95}
	for _, p := range analysis.Fig8(thetas, fig8MaxM, fig8Trials, seed) {
		mark := ""
		if p.Theta == core.Theta {
			mark = " (θ = √3/2, the paper's value; analytic m₀ = 8)"
		}
		fmt.Printf("| %.4f | %d%s | %.4f |\n", p.Theta, p.M0, mark, p.WorstMargin)
	}
	fmt.Println()

	fmt.Println("## E3 — Theorem 2 health: Property-3 violations at θ = √3/2, m ≥ 8")
	fmt.Println()
	fmt.Println("| m | qualifying trials | violations | worst level-2 end / 2θλ |")
	fmt.Println("|---|---|---|---|")
	for _, r := range analysis.M0Empirical(core.Theta, koMs, koSeeds*4, seed) {
		fmt.Printf("| %d | %d | %d | %.4f |\n", r.M, r.Trials, r.Violations, r.WorstMargin)
	}
}
