// Command mssim evaluates the scheduling stack *online*: it plays arrival
// traces through the discrete-event cluster simulator (internal/sim) under
// every selected policy and emits BENCH_sim.json — the reproducible
// simulation artifact whose schema (bench-sim/v3) is documented in
// docs/BENCHMARKS.md. Every executed timeline is certified with
// malsched.VerifyTimeline before it is reported; a violation is a
// simulator bug and exits non-zero.
//
// Usage:
//
//	mssim [-out BENCH_sim.json] [-quick] [-seed 1]
//	      [-policies epoch-batch,greedy-rigid,replan-on-arrival,dag-release]
//	      [-epoch 2] [-preempt repartition] [-solver mrt]
//	      [-metrics-out metrics.txt]
//	mssim -trace trace.json [flags]
//
// -metrics-out additionally writes Prometheus text metrics — per-policy
// planning-solve wall-clock histograms — to a separate file. Wall-clock
// never enters the artifact, so BENCH_sim.json stays bit-identical across
// runs with or without the flag.
//
// The default mode runs a workload×policy×noise grid over generated
// traces; -trace replays one trace JSON file (see cmd/msgen -trace)
// through the selected policies instead. A trace/v2 file carrying a
// precedence DAG runs only under the dag-aware policies of the selection
// (sim.Run refuses edge-blind ones), and its timelines are certified with
// the DAG verifier — predecessor-ordering included — instead of the plain
// one. The artifact is bit-identical across runs with the same flags: the
// simulator is deterministic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"malsched"
	"malsched/internal/engine"
	"malsched/internal/obs"
	"malsched/internal/sim"
	"malsched/internal/workload"
)

// Schema identifies the BENCH_sim.json layout; bump on breaking change.
// v2: replan-on-arrival rows replan warm by default (lineage-threaded
// warm starts — schedules unchanged, probes lower) and carry the new
// synthesized column counting probe outcomes resolved without a dual step.
// v3: the header drops the parallelism key with the -parallelism flag (the
// planning search is sequential); rows are unchanged.
const Schema = "malsched/bench-sim/v3"

// scenario is one workload of the grid; each runs under every policy at
// every noise level.
type scenario struct {
	name  string
	trace *workload.Trace
}

// row is one (workload, policy, noise) cell of the artifact: the scenario
// coordinates plus the simulator's metrics verbatim (sim.Metrics carries
// the JSON tags); field semantics are specified in docs/BENCHMARKS.md.
type row struct {
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	Preempt  string  `json:"preempt,omitempty"`
	N        int     `json:"n"`
	M        int     `json:"m"`
	Noise    float64 `json:"noise"`
	Epoch    float64 `json:"epoch,omitempty"`

	sim.Metrics
	// MakespanOverLB is the executed makespan over the certified
	// squashed-area bound of the offline relaxation — the online + noise
	// degradation the simulation measures.
	MakespanOverLB float64 `json:"makespan_over_lb"`
	Verified       bool    `json:"verified"`
}

// report is the full BENCH_sim.json document.
type report struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Seed      int64   `json:"seed"`
	Epoch     float64 `json:"epoch"`
	Rows      []row   `json:"scenarios"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mssim: ")
	out := flag.String("out", "BENCH_sim.json", "output artifact path (- for stdout)")
	quick := flag.Bool("quick", false, "small grid for a fast smoke run")
	seed := flag.Int64("seed", 1, "base seed (workload generation and runtime noise)")
	solver := flag.String("solver", "", "planning solver (default: the paper's mrt)")
	epoch := flag.Float64("epoch", 2, "epoch-batch planning period")
	preempt := flag.String("preempt", sim.PreemptRepartition, "replan-on-arrival preemption model: none or repartition")
	policies := flag.String("policies", strings.Join(sim.Policies(), ","), "comma-separated policies to run")
	tracePath := flag.String("trace", "", "replay this trace/v1 JSON file instead of the generated grid")
	eps := flag.Float64("eps", 0, "dual-search tolerance (0 = paper default)")
	corrupt := flag.Bool("selftest-corrupt", false, "deliberately corrupt the first timeline before verification (must exit non-zero; CI self-test)")
	metricsOut := flag.String("metrics-out", "", "also write Prometheus text metrics (per-policy solve-latency histograms) to this file; BENCH_sim.json is unaffected")
	flag.Parse()

	pols := strings.Split(*policies, ",")
	scenarios, err := grid(*quick, *seed, *tracePath)
	if err != nil {
		log.Fatal(err)
	}

	rep := report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seed:      *seed,
		Epoch:     *epoch,
	}
	// One planning engine for the whole grid: cells of the same workload
	// share the compiled trace tables and answer repeated residual
	// re-solves from the memo. Sharing never changes results (memo hits
	// return cloned, bit-identical solutions), only latency.
	eng := engine.New(engine.Config{Workers: 1})
	// The metrics registry rides beside the artifact: solve wall-clock
	// histograms per policy, written as Prometheus text to -metrics-out.
	// Wall-clock never feeds BENCH_sim.json, which stays bit-identical
	// across runs (CI cmp-checks it).
	var metrics *obs.Registry
	solveHists := map[string]*obs.Histogram{}
	if *metricsOut != "" {
		metrics = obs.NewRegistry()
		metrics.CounterFunc("mssim_rows_total", "Grid cells simulated.",
			func() float64 { return float64(len(rep.Rows)) })
	}
	for _, sc := range scenarios {
		jobs := sim.TimelineJobs(sc.trace)
		polsFor := pols
		if sc.trace.Edges != nil {
			polsFor = polsFor[:0:0]
			for _, p := range pols {
				if sim.DAGAware(p) {
					polsFor = append(polsFor, p)
				}
			}
			if len(polsFor) == 0 {
				log.Fatalf("%s carries precedence edges but no selected policy is dag-aware (have %s)",
					sc.name, *policies)
			}
		}
		for _, noise := range []float64{0, 0.15} {
			for _, policy := range polsFor {
				cfg := sim.Config{
					Policy: policy,
					Epoch:  *epoch,
					Noise:  noise,
					Seed:   *seed,
					Eps:    *eps,
					Solver: *solver,
					Engine: eng,
				}
				if policy == "replan-on-arrival" {
					cfg.Preempt = *preempt
				}
				if metrics != nil {
					h, ok := solveHists[policy]
					if !ok {
						h = metrics.Histogram("mssim_solve_latency_us",
							"Planning-solve wall-clock by policy.", "policy", policy)
						solveHists[policy] = h
					}
					cfg.SolveObserver = func(ns int64) { h.Observe(ns / 1e3) }
				}
				res, err := sim.Run(sc.trace, cfg)
				if err != nil {
					log.Fatalf("%s under %s: %v", sc.name, policy, err)
				}
				if *corrupt && len(res.Timeline) > 0 {
					res.Timeline[0].Duration *= 2
				}
				verr := malsched.VerifyTimeline(sc.trace.M, jobs, res.Timeline)
				if verr == nil && sc.trace.Edges != nil {
					verr = malsched.VerifyTimelineDAG(sc.trace.M, jobs, sc.trace.Edges, res.Timeline)
				}
				if verr != nil {
					log.Fatalf("%s under %s: executed timeline failed verification: %v", sc.name, policy, verr)
				}
				m := res.Metrics
				rep.Rows = append(rep.Rows, row{
					Workload: sc.name, Policy: policy, Preempt: cfg.Preempt,
					N: sc.trace.N(), M: sc.trace.M, Noise: noise, Epoch: epochOf(policy, *epoch),
					Metrics:        m,
					MakespanOverLB: m.Makespan / m.LowerBound,
					Verified:       true,
				})
			}
		}
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mssim: %d rows over %d workloads × %d policies × 2 noise levels\n",
		len(rep.Rows), len(scenarios), len(pols))

	if metrics != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := metrics.WriteText(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// epochOf reports the epoch column only for the policy it configures.
func epochOf(policy string, epoch float64) float64 {
	if policy == "epoch-batch" {
		return epoch
	}
	return 0
}

// grid builds the workload scenarios: a replayed trace, or the default
// generated set (shrunk under -quick).
func grid(quick bool, seed int64, tracePath string) ([]scenario, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := workload.ReadJSON(f)
		if err != nil {
			return nil, err
		}
		return []scenario{{name: tr.Name, trace: tr}}, nil
	}
	type spec struct {
		name string
		gen  func() (*workload.Trace, error)
	}
	n1, n2, n3 := 40, 24, 18
	if quick {
		n1, n2, n3 = 14, 12, 8
	}
	specs := []spec{
		{"poisson-mixed", func() (*workload.Trace, error) { return workload.Poisson(seed, n1, 32, 2.0, "mixed") }},
		{"burst-comm-heavy", func() (*workload.Trace, error) { return workload.Burst(seed, n2, 12, 2, 30.0, "comm-heavy") }},
		{"poisson-wide", func() (*workload.Trace, error) { return workload.Poisson(seed, n3, 16, 0.8, "wide-parallel") }},
	}
	out := make([]scenario, len(specs))
	for i, sp := range specs {
		tr, err := sp.gen()
		if err != nil {
			return nil, err
		}
		out[i] = scenario{name: sp.name, trace: tr}
	}
	return out, nil
}
