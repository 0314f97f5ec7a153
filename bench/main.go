// Command bench is the repository's one benchmark of the whole request
// path: five closed-loop serving workloads against the real in-process
// stack (router over two scheduler shards, every default), seven
// end-to-end metrics from an untraced timed window, and per-layer numbers
// timed from outside around public calls into each layer. BENCHMARK.json
// at the repository root declares the same workloads and metrics for the
// driver; README.md in this directory says what each number is for.
//
// Usage:
//
//	go run ./bench                                   every workload, both runs, table + bench/out/result.json
//	go run ./bench -workload serve-hot -trace 0      one run; last stdout line is the driver's JSON object
//	go run ./bench -runs 3 -out bench/out/a          median and quartiles per metric
//	go run ./bench -compare a/result.json b/result.json
//
// Every answer is checked: the warm-up re-verifies each distinct response
// client-side and records its certificate, the timed window compares every
// response against that record, and guards fail a run whose traffic did not
// do what the workload's name says.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

const resultSchema = "malsched/bench/v1"

// provenance is what two result files must share to be comparable:
// everything but the commit.
type provenance struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Clients    int      `json:"clients"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Requests   int      `json:"requests"`
	Quick      bool     `json:"quick"`
	Workloads  []string `json:"workloads"`
}

// resultFile is the JSON result of one invocation.
type resultFile struct {
	Schema     string      `json:"schema"`
	Provenance provenance  `json:"provenance"`
	Runs       []runResult `json:"runs"`
}

// commit is the VCS revision stamped into the binary, when there is one
// (the driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	wname := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := fs.Float64("seconds", 15, "length of the timed window")
	requests := fs.Int("requests", 0, "measure a fixed request count instead of -seconds (exact-count metrics then repeat exactly)")
	trace := fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	quick := fs.Bool("quick", false, "test-sized pools and caches")
	runs := fs.Int("runs", 1, "repeat every run this many times and print median and quartiles")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result.json and the span files")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}

	var ws []*workload
	if *wname == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := workloadByName(*wname); w != nil {
		ws = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", *wname)
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both, got %q", *trace)
	}
	if *runs < 1 || (*seconds <= 0 && *requests <= 0) {
		return errors.New("-runs and the window must be positive")
	}
	sc := fullScale
	if *quick {
		sc = quickScale
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	file := resultFile{Schema: resultSchema, Provenance: provenance{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		Seed: *seed, Seconds: *seconds, Requests: *requests, Quick: *quick,
	}}
	for _, w := range ws {
		file.Provenance.Workloads = append(file.Provenance.Workloads, w.name)
	}
	for r := 0; r < *runs; r++ {
		for _, w := range ws {
			for _, tr := range traces {
				res, err := runOnce(runConfig{w: w, seed: *seed, seconds: *seconds, requests: *requests, trace: tr, sc: sc, outDir: *out})
				if err != nil {
					return err
				}
				file.Runs = append(file.Runs, *res)
				if *runs == 1 {
					printRun(stdout, res)
				}
			}
		}
	}
	if *runs > 1 {
		printQuartiles(stdout, &file)
	}
	buf, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "result.json"), append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if len(file.Runs) == 1 {
		// One run of one workload is how the driver calls the benchmark:
		// the last line of standard output is its result object.
		return printDriverLine(stdout, &file.Runs[0])
	}
	return nil
}

// runOnce performs one run: the untraced one sets up (several times, for a
// steady setup_s) and measures the end-to-end metrics over the timed
// window; the traced one spends half the window untraced, to read the
// stack's own counters under load, and then replays the sample layer by
// layer.
func runOnce(cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.w.name, ClassCounts: map[string]int{}, Metrics: map[string]float64{}}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	quota := cfg.requests
	setups := cfg.sc.setups
	if cfg.trace {
		res.Trace = 1
		dur, quota, setups = dur/2, (quota+1)/2, 1
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.st.close()
		}
		var s float64
		var err error
		if e, s, err = setUp(cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.w.name, err)
		}
		setupS = append(setupS, s)
	}
	defer e.st.close()

	win, err := runWindow(e, dur, quota)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	if err := checkIntent(cfg.w, e, win); err != nil {
		return nil, err
	}
	sum := summarize(win, dur, quota > 0)
	res.Attempted, res.Failed = win.attempted, win.failed
	res.Samples, res.Rounds, res.P99Supported = sum.samples, sum.rounds, sum.p99Supported
	for c, n := range win.classCounts {
		if n > 0 {
			res.ClassCounts[classNames[c]] = n
		}
	}
	firstFailure := win.firstFailure
	if cfg.trace {
		lp := newLayerPass(e, cfg.sc)
		if res.Metrics, err = lp.run(cfg, win); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", cfg.w.name, err)
		}
		res.Attempted += lp.attempted
		res.Failed += lp.failed
		if firstFailure == "" {
			firstFailure = lp.firstFailure
		}
	} else {
		ok := win.attempted - win.failed
		if ok == 0 {
			return nil, fmt.Errorf("%s: no request succeeded: %s", cfg.w.name, firstFailure)
		}
		res.Metrics = map[string]float64{
			"setup_s":        median(setupS),
			"throughput_rps": sum.throughput,
			"latency_p50_us": sum.p50us,
			"latency_p99_us": sum.p99us,
			"ok_share":       float64(ok) / float64(win.attempted),
			"allocs_per_req": float64(win.mallocs) / float64(win.attempted),
			"ratio_mean":     win.ratioSum / float64(ok),
		}
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d requests failed; first: %s\n", cfg.w.name, res.Failed, res.Attempted, firstFailure)
	}
	return res, nil
}

// declared returns the metrics a run of the given kind reports.
func declared(trace int) []metric {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// printRun prints one line per metric: workload, metric, value, unit.
func printRun(w io.Writer, res *runResult) {
	if res.Trace == 0 {
		fmt.Fprintf(w, "%s samples %d count (rounds %d, p99 has ten samples beyond it: %v)\n", res.Workload, res.Samples, res.Rounds, res.P99Supported)
	}
	for _, m := range declared(res.Trace) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, m.Name, res.Metrics[m.Name], m.Unit)
	}
}

// printQuartiles prints, for repeated runs, each metric's median and
// quartiles over the repeats.
func printQuartiles(w io.Writer, file *resultFile) {
	fmt.Fprintln(w, "workload metric median q1 q3 unit")
	for _, wname := range file.Provenance.Workloads {
		for trace := 0; trace <= 1; trace++ {
			for _, m := range declared(trace) {
				xs := file.values(wname, trace, m.Name)
				if len(xs) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(xs)
				fmt.Fprintf(w, "%s %s %.6g %.6g %.6g %s\n", wname, m.Name, q2, q1, q3, m.Unit)
			}
		}
	}
}

// values collects one metric of one workload over the file's runs.
func (f *resultFile) values(wname string, trace int, metric string) []float64 {
	var xs []float64
	for i := range f.Runs {
		if r := &f.Runs[i]; r.Workload == wname && r.Trace == trace {
			xs = append(xs, r.Metrics[metric])
		}
	}
	return xs
}

// printDriverLine prints the result object of the benchmark contract.
func printDriverLine(w io.Writer, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range declared(res.Trace) {
		obj.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	buf, err := json.Marshal(obj)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}
