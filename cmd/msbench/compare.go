package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// section describes one array of the artifact to the comparer: the columns
// that name a cell, the columns that are a pure function of the cell (any
// difference is a failure) and the measured ones (reported, never judged:
// they move with the machine). group names the key columns the measured
// sums are split by.
type section struct {
	name          string
	key           []string
	deterministic []string
	measured      []string
	group         []string
}

var sections = []section{
	{
		name:          "scenarios",
		key:           []string{"family", "n", "m", "solver", "parallelism", "workers"},
		deterministic: []string{"probes_cold", "ratio_mean", "ratio_max", "makespan_sum", "errors"},
		measured: []string{"ns_per_op_cold", "ns_per_op_warm", "allocs_per_op_cold", "allocs_per_op_warm",
			"bytes_per_op_cold", "bytes_per_op_warm", "compile_ns", "probe_ns_hot"},
		group: []string{"solver", "parallelism"},
	},
	{
		name:          "dag",
		key:           []string{"family", "n", "m", "seed", "shape", "solver"},
		deterministic: []string{"makespan", "lower", "ratio", "plan_hash"},
		measured:      []string{"solve_ns_cold", "solve_ns_hot", "allocs_per_solve"},
		group:         []string{"solver"},
	},
	{
		name:          "replan_churn",
		key:           []string{"workload", "preempt"},
		deterministic: []string{"replans", "probes_warm", "probes_cold", "synthesized"},
		measured:      []string{"ns_per_replan_warm", "ns_per_replan_cold"},
	},
}

// row is one cell as decoded JSON; numbers stay json.Number, so a
// deterministic column is compared by the digits the encoder wrote.
type row map[string]any

func (r row) coordinates(cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%s=%v", c, r[c])
	}
	return strings.Join(parts, " ")
}

func readArtifact(path string) (map[string]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func sectionRows(doc map[string]any, path string, s section) (map[string]row, []string, error) {
	list, _ := doc[s.name].([]any)
	rows := make(map[string]row, len(list))
	order := make([]string, 0, len(list))
	for _, v := range list {
		m, ok := v.(map[string]any)
		if !ok {
			return nil, nil, fmt.Errorf("%s: %s holds a non-object row", path, s.name)
		}
		k := row(m).coordinates(s.key)
		if _, dup := rows[k]; dup {
			return nil, nil, fmt.Errorf("%s: %s has two rows at %s", path, s.name, k)
		}
		rows[k] = m
		order = append(order, k)
	}
	return rows, order, nil
}

// compareArtifacts compares two BENCH_engine.json files cell by cell and
// writes the report to w. It returns the number of deterministic
// differences, a cell present on one side only counting as one.
func compareArtifacts(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readArtifact(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readArtifact(pathB)
	if err != nil {
		return 0, err
	}
	diffs := 0
	if a["schema"] != b["schema"] {
		fmt.Fprintf(w, "schema: %v vs %v\n", a["schema"], b["schema"])
		diffs++
	}
	for _, s := range sections {
		rowsA, order, err := sectionRows(a, pathA, s)
		if err != nil {
			return 0, err
		}
		rowsB, orderB, err := sectionRows(b, pathB, s)
		if err != nil {
			return 0, err
		}
		before := diffs
		for _, k := range orderB {
			if _, ok := rowsA[k]; !ok {
				fmt.Fprintf(w, "%s: cell only in %s: %s\n", s.name, pathB, k)
				diffs++
			}
		}
		type tally struct {
			sumA, sumB  float64
			fell, cells int
		}
		type column struct{ group, name string }
		tallies := map[column]*tally{}
		var groups []string
		for _, k := range order {
			ra, rb := rowsA[k], rowsB[k]
			if rb == nil {
				fmt.Fprintf(w, "%s: cell only in %s: %s\n", s.name, pathA, k)
				diffs++
				continue
			}
			for _, col := range s.deterministic {
				if ra[col] != rb[col] {
					fmt.Fprintf(w, "%s: %s: %s %v vs %v\n", s.name, k, col, ra[col], rb[col])
					diffs++
				}
			}
			g := ra.coordinates(s.group)
			if !slices.Contains(groups, g) {
				groups = append(groups, g)
			}
			for _, col := range s.measured {
				va, _ := ra[col].(json.Number)
				vb, _ := rb[col].(json.Number)
				fa, _ := va.Float64()
				fb, _ := vb.Float64()
				t := tallies[column{g, col}]
				if t == nil {
					t = &tally{}
					tallies[column{g, col}] = t
				}
				t.sumA, t.sumB, t.cells = t.sumA+fa, t.sumB+fb, t.cells+1
				if fb < fa {
					t.fell++
				}
			}
		}
		fmt.Fprintf(w, "%s: %d cells vs %d, %d deterministic differences\n", s.name, len(rowsA), len(rowsB), diffs-before)
		sort.Strings(groups)
		for _, g := range groups {
			for _, col := range s.measured {
				t := tallies[column{g, col}]
				label := strings.TrimSpace(g + " " + col)
				change := ""
				if t.sumA != 0 {
					change = fmt.Sprintf(" (%+.1f %%)", 100*(t.sumB-t.sumA)/t.sumA)
				}
				fmt.Fprintf(w, "  %-48s Σ %.0f → %.0f%s, fell in %d of %d cells\n", label, t.sumA, t.sumB, change, t.fell, t.cells)
			}
		}
	}
	return diffs, nil
}
