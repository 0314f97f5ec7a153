package main

import (
	"bytes"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// The committed BENCH_sim.json must be what the current code writes with
// the default flags: the full grid is simulated in process, checked for
// the properties every grid must have, and compared byte for byte with the
// committed file.
func TestSimArtifactIsCurrent(t *testing.T) {
	rep := mustSimulate(t, false, "", defaults)
	checkGrid(t, rep)
	var got bytes.Buffer
	if err := rep.write(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	if line, g, w := firstDiff(got.Bytes(), want); line > 0 {
		t.Fatalf("BENCH_sim.json is stale at line %d: the code writes %q, the file holds %q.\n"+
			"Regenerate it from the repository root with: go run ./cmd/mssim", line, g, w)
	}
}

// The quick grid has the full grid's properties, and the solve-latency
// hook that -metrics-out installs changes no byte of the artifact while it
// fills its histograms.
func TestObserveLeavesArtifactUnchanged(t *testing.T) {
	plain := mustSimulate(t, true, "", defaults)
	checkGrid(t, plain)
	s := defaults
	metrics, observe := observeSolves()
	s.observe = observe
	observed := mustSimulate(t, true, "", s)

	var a, b, text bytes.Buffer
	if err := plain.write(&a); err != nil {
		t.Fatal(err)
	}
	if err := observed.write(&b); err != nil {
		t.Fatal(err)
	}
	if line, x, y := firstDiff(a.Bytes(), b.Bytes()); line > 0 {
		t.Fatalf("observing solves changed the artifact at line %d: %q vs %q", line, x, y)
	}
	if err := metrics.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "# TYPE mssim_solve_latency_us histogram") {
		t.Fatalf("no solve-latency histogram in the metrics:\n%s", text.String())
	}
}

// The committed traces replay with every timeline verified: trace/v1 under
// every policy, the trace/v2 DAG file under dag-release alone — and an
// edge-carrying trace with only edge-blind policies selected is an error,
// not a silent projection onto independent tasks.
func TestTraceReplays(t *testing.T) {
	for _, c := range []struct {
		path     string
		policies []string
	}{
		{"../../testdata/trace_tiny.json", []string{"dag-release", "epoch-batch", "greedy-rigid", "replan-on-arrival"}},
		{"../../testdata/trace_dag_tiny.json", []string{"dag-release"}},
	} {
		rep := mustSimulate(t, false, c.path, defaults)
		ran := map[string]bool{}
		for _, r := range rep.Rows {
			ran[r.Policy] = true
			if !r.Verified {
				t.Errorf("%s: %s row unverified", c.path, r.Policy)
			}
		}
		if got := slices.Sorted(maps.Keys(ran)); !slices.Equal(got, c.policies) {
			t.Errorf("%s ran policies %v, want %v", c.path, got, c.policies)
		}
	}

	scenarios, err := grid(false, defaults.seed, "../../testdata/trace_dag_tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	s := defaults
	s.policies = []string{"epoch-batch"}
	if _, err := simulate(scenarios, s); err == nil || !strings.Contains(err.Error(), "no selected policy is dag-aware") {
		t.Fatalf("DAG trace under epoch-batch alone: %v", err)
	}
}

// The verification tripwire trips: a timeline damaged before it is
// certified fails the run.
func TestVerificationTripwire(t *testing.T) {
	scenarios, err := grid(true, defaults.seed, "")
	if err != nil {
		t.Fatal(err)
	}
	s := defaults
	s.corrupt = true
	if _, err := simulate(scenarios, s); err == nil || !strings.Contains(err.Error(), "failed verification") {
		t.Fatalf("a corrupted timeline was not refused: %v", err)
	}
}

func mustSimulate(t *testing.T, quick bool, tracePath string, s settings) report {
	t.Helper()
	scenarios, err := grid(quick, s.seed, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simulate(scenarios, s)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkGrid asserts what every generated grid must show: the schema, all
// four policies, warm synthesis on replan-on-arrival and nowhere else,
// every timeline verified, sane flow times and utilization, and epoch-batch
// beating greedy-rigid on mean flow in at least one cell.
func checkGrid(t *testing.T, rep report) {
	t.Helper()
	if rep.Schema != "malsched/bench-sim/v4" {
		t.Errorf("schema %q", rep.Schema)
	}
	type cell struct {
		workload string
		noise    float64
	}
	ran, greedy := map[string]bool{}, map[cell]float64{}
	synthesized := false
	for _, r := range rep.Rows {
		ran[r.Policy] = true
		switch r.Policy {
		case "greedy-rigid":
			greedy[cell{r.Workload, r.Noise}] = r.MeanFlow
		case "replan-on-arrival":
			synthesized = synthesized || r.Synthesized > 0
		}
		if r.Policy != "replan-on-arrival" && r.Synthesized != 0 {
			t.Errorf("%s/%s noise %v: %d synthesized probes outside the warm-lineage policy", r.Workload, r.Policy, r.Noise, r.Synthesized)
		}
		if !r.Verified {
			t.Errorf("%s/%s noise %v: unverified", r.Workload, r.Policy, r.Noise)
		}
		if !(r.MeanFlow > 0 && r.MaxFlow >= r.MeanFlow) {
			t.Errorf("%s/%s noise %v: flow times mean %v max %v", r.Workload, r.Policy, r.Noise, r.MeanFlow, r.MaxFlow)
		}
		if !(r.Utilization > 0 && r.Utilization <= 1+1e-9) {
			t.Errorf("%s/%s noise %v: utilization %v", r.Workload, r.Policy, r.Noise, r.Utilization)
		}
	}
	if got, want := slices.Sorted(maps.Keys(ran)), []string{"dag-release", "epoch-batch", "greedy-rigid", "replan-on-arrival"}; !slices.Equal(got, want) {
		t.Errorf("policies %v, want %v", got, want)
	}
	if !synthesized {
		t.Error("warm replanning synthesized nothing")
	}
	wins := 0
	for _, r := range rep.Rows {
		if r.Policy == "epoch-batch" && r.MeanFlow < greedy[cell{r.Workload, r.Noise}] {
			wins++
		}
	}
	if wins == 0 {
		t.Error("epoch-batch never beat greedy-rigid on mean flow")
	}
}

// firstDiff returns the first line (1-based) at which a and b differ and
// that line of each, or 0 when they are equal.
func firstDiff(a, b []byte) (int, string, string) {
	if bytes.Equal(a, b) {
		return 0, "", ""
	}
	la, lb := strings.SplitAfter(string(a), "\n"), strings.SplitAfter(string(b), "\n")
	i := 0
	for i < len(la) && i < len(lb) && la[i] == lb[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return ""
	}
	return i + 1, at(la), at(lb)
}
