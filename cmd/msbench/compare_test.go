package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const compareBase = `{
  "schema": "malsched/bench-engine/v7",
  "scenarios": [
    {"family": "mixed", "n": 25, "m": 16, "solver": "mrt", "parallelism": 1, "workers": 1,
     "ns_per_op_cold": 47414, "allocs_per_op_cold": 59, "probes_cold": 48,
     "ratio_mean": 1.0615387224967114, "ratio_max": 1.13, "makespan_sum": 13.555053087534084, "errors": 0},
    {"family": "mixed", "n": 25, "m": 16, "solver": "portfolio", "parallelism": 1, "workers": 1,
     "ns_per_op_cold": 90000, "allocs_per_op_cold": 200, "probes_cold": 48,
     "ratio_mean": 1.05, "ratio_max": 1.1, "makespan_sum": 13.4, "errors": 0}
  ],
  "replan_churn": [
    {"workload": "poisson-mixed-18", "preempt": "none", "replans": 17, "probes_warm": 24, "probes_cold": 28,
     "synthesized": 4, "ns_per_replan_warm": 12792, "ns_per_replan_cold": 13981}
  ],
  "dag": [
    {"family": "mixed", "n": 25, "m": 16, "seed": 1, "shape": "chain", "solver": "dag",
     "makespan": "0x1.59fa01b7dd2ebp+03", "lower": "0x1.59fa01b7dd2ebp+03", "ratio": 1,
     "plan_hash": "ae38fb6687b71d8b", "solve_ns_cold": 121694, "solve_ns_hot": 24789, "allocs_per_solve": 3}
  ]
}`

// The comparer matches rows on cell coordinates, lets measured columns
// move, and counts every deterministic difference and every cell missing on
// one side.
func TestCompareArtifacts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	replace := func(old, new string) string {
		if !strings.Contains(compareBase, old) {
			t.Fatalf("fixture lost %q", old)
		}
		return strings.Replace(compareBase, old, new, 1)
	}
	base := write("base.json", compareBase)

	for _, tc := range []struct {
		name  string
		doc   string
		diffs int
		says  string
	}{
		{"identical", compareBase, 0, "scenarios: 2 cells vs 2, 0 deterministic differences"},
		{"measured columns moved", replace(`"allocs_per_op_cold": 59`, `"allocs_per_op_cold": 49`), 0, "solver=mrt parallelism=1 allocs_per_op_cold"},
		{"ratio moved in the last digit", replace(`1.0615387224967114`, `1.0615387224967116`), 1, "ratio_mean 1.0615387224967114 vs 1.0615387224967116"},
		{"plan hash moved", replace(`ae38fb6687b71d8b`, `ae38fb6687b71d8c`), 1, "plan_hash"},
		{"probe count moved", replace(`"probes_warm": 24`, `"probes_warm": 25`), 1, "probes_warm 24 vs 25"},
		{"cell renamed", replace(`"shape": "chain"`, `"shape": "out-tree"`), 2, "cell only in"},
		{"schema moved", replace(`bench-engine/v7`, `bench-engine/v8`), 1, "schema"},
	} {
		var out strings.Builder
		diffs, err := compareArtifacts(&out, base, write("other.json", tc.doc))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if diffs != tc.diffs || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: %d differences, want %d, and %q in the report:\n%s", tc.name, diffs, tc.diffs, tc.says, out.String())
		}
	}

	var out strings.Builder
	if _, err := compareArtifacts(&out, base, write("twice.json", replace(`"solver": "portfolio"`, `"solver": "mrt"`))); err == nil {
		t.Error("two rows at one cell were accepted")
	}
	if _, err := compareArtifacts(&out, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file was accepted")
	}
}
