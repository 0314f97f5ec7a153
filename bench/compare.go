package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

func readResult(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// verdict classifies one end-to-end metric of one workload between a
// baseline and a change, and returns the two medians with it. worse is the
// share of the baseline median by which the change's median is worse
// (negative when it is better).
//
//   - regression: worse than the metric's bound;
//   - unresolved: within the bound, but either side's run-to-run spread
//     (interquartile range over median) is wider than the bound, so the
//     runs cannot tell — unless every run of the change beats every run of
//     the baseline;
//   - unchanged: within the bound and resolved.
func verdict(m metric, base, change []float64) (v string, mb, mc, worse float64) {
	_, mb, _ = quartiles(base)
	_, mc, _ = quartiles(change)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if mb != 0 {
		worse = sign * (mc - mb) / mb
	}
	if worse > m.Bound {
		return "regression", mb, mc, worse
	}
	if spread(base) > m.Bound || spread(change) > m.Bound {
		allBetter := true
		for _, c := range change {
			for _, b := range base {
				if sign*(c-b) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", mb, mc, worse
		}
	}
	return "unchanged", mb, mc, worse
}

// compareFiles applies each end-to-end metric's bound to two result files,
// workload by workload, and fails on a regression. Files whose provenance
// differs in anything but the commit are refused: they would compare
// machines or settings, not code.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	change, err := readResult(changePath)
	if err != nil {
		return err
	}
	pb, pc := base.Provenance, change.Provenance
	pb.Commit, pc.Commit = "", ""
	if !reflect.DeepEqual(pb, pc) {
		return fmt.Errorf("provenance differs beyond the commit, refusing to compare:\n  %+v\n  %+v", pb, pc)
	}
	fmt.Fprintf(w, "baseline %s, change %s\n", base.Provenance.Commit, change.Provenance.Commit)
	fmt.Fprintln(w, "workload metric baseline change worse_by bound verdict")
	counts := map[string]int{}
	for _, wname := range base.Provenance.Workloads {
		for _, m := range endToEnd {
			b, c := base.values(wname, 0, m.Name), change.values(wname, 0, m.Name)
			if len(b) == 0 || len(c) == 0 {
				return fmt.Errorf("%s %s: missing from one of the files", wname, m.Name)
			}
			v, mb, mc, worse := verdict(m, b, c)
			counts[v]++
			fmt.Fprintf(w, "%s %s %.6g %.6g %+.2f%% %.1f%% %s\n", wname, m.Name, mb, mc, worse*100, m.Bound*100, v)
		}
	}
	fmt.Fprintf(w, "%d unchanged, %d unresolved, %d regression\n", counts["unchanged"], counts["unresolved"], counts["regression"])
	if counts["regression"] > 0 {
		return fmt.Errorf("%d regression(s)", counts["regression"])
	}
	return nil
}
