// Command mssim evaluates the scheduling stack *online*: it plays arrival
// traces through the discrete-event cluster simulator (internal/sim) under
// every selected policy and emits BENCH_sim.json — the reproducible
// simulation artifact whose schema (bench-sim/v4) is documented in
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
	"io"
	"log"
	"os"
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
// v4: the header drops go_version, goos and goarch, so the file is a pure
// function of the code and the flags; rows are unchanged.
const Schema = "malsched/bench-sim/v4"

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
	Schema string  `json:"schema"`
	Seed   int64   `json:"seed"`
	Epoch  float64 `json:"epoch"`
	Rows   []row   `json:"scenarios"`
}

// settings are the flags that shape the rows; defaults holds the flag
// defaults, which the committed artifact was written with.
type settings struct {
	seed     int64
	epoch    float64
	preempt  string
	solver   string
	eps      float64
	policies []string
	// corrupt damages the first timeline before verification: the
	// tripwire's self-test, TestVerificationTripwire, sets it.
	corrupt bool
	// observe, when set, returns the solve-latency observer of a policy.
	observe func(policy string) func(ns int64)
}

var defaults = settings{seed: 1, epoch: 2, preempt: sim.PreemptRepartition, policies: sim.Policies()}

// write encodes the report as the artifact's bytes.
func (r *report) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mssim: ")
	out := flag.String("out", "BENCH_sim.json", "output artifact path (- for stdout)")
	quick := flag.Bool("quick", false, "small grid for a fast smoke run")
	seed := flag.Int64("seed", defaults.seed, "base seed (workload generation and runtime noise)")
	solver := flag.String("solver", defaults.solver, "planning solver (default: the paper's mrt)")
	epoch := flag.Float64("epoch", defaults.epoch, "epoch-batch planning period")
	preempt := flag.String("preempt", defaults.preempt, "replan-on-arrival preemption model: none or repartition")
	policies := flag.String("policies", strings.Join(defaults.policies, ","), "comma-separated policies to run")
	tracePath := flag.String("trace", "", "replay this trace/v1 JSON file instead of the generated grid")
	eps := flag.Float64("eps", defaults.eps, "dual-search tolerance (0 = paper default)")
	metricsOut := flag.String("metrics-out", "", "also write Prometheus text metrics (per-policy solve-latency histograms) to this file; BENCH_sim.json is unaffected")
	flag.Parse()

	s := settings{
		seed: *seed, epoch: *epoch, preempt: *preempt, solver: *solver, eps: *eps,
		policies: strings.Split(*policies, ","),
	}
	scenarios, err := grid(*quick, *seed, *tracePath)
	if err != nil {
		log.Fatal(err)
	}

	// The metrics registry rides beside the artifact: solve wall-clock
	// histograms per policy, written as Prometheus text to -metrics-out.
	// Wall-clock never feeds BENCH_sim.json, which stays bit-identical
	// across runs (TestObserveLeavesArtifactUnchanged).
	var rep report
	var metrics *obs.Registry
	if *metricsOut != "" {
		metrics, s.observe = observeSolves()
		metrics.CounterFunc("mssim_rows_total", "Grid cells simulated.",
			func() float64 { return float64(len(rep.Rows)) })
	}
	if rep, err = simulate(scenarios, s); err != nil {
		log.Fatal(err)
	}

	if err := writeOut(*out, rep.write); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mssim: %d rows over %d workloads × %d policies × 2 noise levels\n",
		len(rep.Rows), len(scenarios), len(s.policies))
	if metrics != nil {
		if err := writeOut(*metricsOut, metrics.WriteText); err != nil {
			log.Fatal(err)
		}
	}
}

// writeOut writes what write emits to the file at path, or to stdout for
// "-".
func writeOut(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// observeSolves returns a registry of per-policy planning-solve latency
// histograms and the settings.observe hook that fills it.
func observeSolves() (*obs.Registry, func(policy string) func(ns int64)) {
	metrics := obs.NewRegistry()
	hists := map[string]*obs.Histogram{}
	return metrics, func(policy string) func(int64) {
		h, ok := hists[policy]
		if !ok {
			h = metrics.Histogram("mssim_solve_latency_us",
				"Planning-solve wall-clock by policy.", "policy", policy)
			hists[policy] = h
		}
		return func(ns int64) { h.Observe(ns / 1e3) }
	}
}

// simulate runs every scenario under every selected policy at both noise
// levels and certifies each executed timeline before it becomes a row.
func simulate(scenarios []scenario, s settings) (report, error) {
	rep := report{Schema: Schema, Seed: s.seed, Epoch: s.epoch}
	// One planning engine for the whole grid: cells of the same workload
	// share the compiled trace tables and answer repeated residual
	// re-solves from the memo. Sharing never changes results (memo hits
	// return cloned, bit-identical solutions), only latency.
	eng := engine.New(engine.Config{Workers: 1})
	for _, sc := range scenarios {
		jobs := sim.TimelineJobs(sc.trace)
		polsFor := s.policies
		if sc.trace.Edges != nil {
			polsFor = polsFor[:0:0]
			for _, p := range s.policies {
				if sim.DAGAware(p) {
					polsFor = append(polsFor, p)
				}
			}
			if len(polsFor) == 0 {
				return rep, fmt.Errorf("%s carries precedence edges but no selected policy is dag-aware (have %s)",
					sc.name, strings.Join(s.policies, ","))
			}
		}
		for _, noise := range []float64{0, 0.15} {
			for _, policy := range polsFor {
				cfg := sim.Config{
					Policy: policy,
					Epoch:  s.epoch,
					Noise:  noise,
					Seed:   s.seed,
					Eps:    s.eps,
					Solver: s.solver,
					Engine: eng,
				}
				if policy == "replan-on-arrival" {
					cfg.Preempt = s.preempt
				}
				if s.observe != nil {
					cfg.SolveObserver = s.observe(policy)
				}
				res, err := sim.Run(sc.trace, cfg)
				if err != nil {
					return rep, fmt.Errorf("%s under %s: %w", sc.name, policy, err)
				}
				if s.corrupt && len(res.Timeline) > 0 {
					res.Timeline[0].Duration *= 2
				}
				verr := malsched.VerifyTimeline(sc.trace.M, jobs, res.Timeline)
				if verr == nil && sc.trace.Edges != nil {
					verr = malsched.VerifyTimelineDAG(sc.trace.M, jobs, sc.trace.Edges, res.Timeline)
				}
				if verr != nil {
					return rep, fmt.Errorf("%s under %s: executed timeline failed verification: %w", sc.name, policy, verr)
				}
				m := res.Metrics
				rep.Rows = append(rep.Rows, row{
					Workload: sc.name, Policy: policy, Preempt: cfg.Preempt,
					N: sc.trace.N(), M: sc.trace.M, Noise: noise, Epoch: epochOf(policy, s.epoch),
					Metrics:        m,
					MakespanOverLB: m.Makespan / m.LowerBound,
					Verified:       true,
				})
			}
		}
	}
	return rep, nil
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
