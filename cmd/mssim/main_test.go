package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The committed BENCH_sim.json must be what the current code writes with
// the default flags: the full grid is simulated in process and compared
// byte for byte with the committed file.
func TestSimArtifactIsCurrent(t *testing.T) {
	scenarios, err := grid(false, defaults.seed, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simulate(scenarios, defaults)
	if err != nil {
		t.Fatal(err)
	}
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
