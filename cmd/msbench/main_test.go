package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The committed BENCH_engine.json must be what the current code writes:
// the full grid is rebuilt in process, checked for the properties every
// artifact must have, and compared byte for byte with the committed file.
// A change that moves any certified ratio, makespan, probe count or plan
// hash fails here until the artifact is regenerated.
func TestEngineArtifactIsCurrent(t *testing.T) {
	rep, err := build(false, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Schema != "malsched/bench-engine/v8" {
		t.Errorf("schema %q", rep.Schema)
	}
	solvers := map[string]int{}
	for _, r := range rep.Scenarios {
		solvers[r.Solver]++
		if r.Errors != 0 {
			t.Errorf("%s %d×%d %s: %d errors", r.Family, r.N, r.M, r.Solver, r.Errors)
		}
		if r.Solver == "mrt" && r.ProbesCold <= 0 {
			t.Errorf("%s %d×%d mrt: no probes counted", r.Family, r.N, r.M)
		}
	}
	if solvers["mrt"] == 0 || solvers["portfolio"] == 0 {
		t.Errorf("solver dimension incomplete: %v", solvers)
	}
	if len(rep.ReplanChurn) == 0 {
		t.Error("empty replan_churn section")
	}
	for _, r := range rep.ReplanChurn {
		if r.ProbesWarm >= r.ProbesCold || r.Synthesized <= 0 {
			t.Errorf("churn %s/%s: warm %d vs cold %d probes, %d synthesized",
				r.Workload, r.Preempt, r.ProbesWarm, r.ProbesCold, r.Synthesized)
		}
	}
	shapes, dagSolvers := map[string]bool{}, map[string]bool{}
	for _, r := range rep.DAG {
		shapes[r.Shape], dagSolvers[r.Solver] = true, true
		if r.Ratio < 1-1e-9 {
			t.Errorf("dag %s/%s/%s seed %d: makespan below its certified bound (ratio %v)",
				r.Family, r.Shape, r.Solver, r.Seed, r.Ratio)
		}
		if len(r.PlanHash) != 16 {
			t.Errorf("dag %s/%s/%s seed %d: malformed plan hash %q", r.Family, r.Shape, r.Solver, r.Seed, r.PlanHash)
		}
	}
	if len(shapes) != 3 || !shapes["chain"] || !shapes["out-tree"] || !shapes["random-0.3"] {
		t.Errorf("dag shapes %v", shapes)
	}
	if len(dagSolvers) != 2 || !dagSolvers["dag"] || !dagSolvers["dag-crossover"] {
		t.Errorf("dag solvers %v", dagSolvers)
	}

	var got bytes.Buffer
	if err := rep.write(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	if line, g, w := firstDiff(got.Bytes(), want); line > 0 {
		t.Fatalf("BENCH_engine.json is stale at line %d: the code writes %q, the file holds %q.\n"+
			"Regenerate it from the repository root with: go run ./cmd/msbench", line, g, w)
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
