package malsched_test

import (
	"encoding/json"
	"os"
	"testing"

	"malsched"
	"malsched/internal/instance"
)

// The DAG solvers are pinned bit-exactly the same way the independent-task
// pipeline is: chain and out-tree (and a seeded random DAG) over seeded
// families, both registry solvers, exact float bits of the certificates
// plus a hash of every placement. Regenerate with -update.
const goldenDAGPath = "testdata/golden_dag.json"

// dagGoldenCase is one (instance, shape) cell of the DAG snapshot grid.
type dagGoldenCase struct {
	in    *malsched.Instance
	shape string
	edges [][]int
}

func dagGoldenGrid(t *testing.T) []dagGoldenCase {
	t.Helper()
	var cases []dagGoldenCase
	gens := instance.Families()
	for _, fam := range []string{"mixed", "comm-heavy", "wide-parallel"} {
		gen := gens[fam]
		if gen == nil {
			t.Fatalf("family %q missing", fam)
		}
		for _, n := range []int{8, 20} {
			for _, m := range []int{8, 32} {
				for seed := int64(1); seed <= 2; seed++ {
					in := gen(seed, n, m)
					tree, err := malsched.OutTreeEdges(n, 2)
					if err != nil {
						t.Fatal(err)
					}
					cases = append(cases,
						dagGoldenCase{in, "chain", malsched.ChainEdges(n)},
						dagGoldenCase{in, "out-tree", tree},
					)
				}
			}
		}
	}
	return cases
}

func TestGoldenDAGSchedule(t *testing.T) {
	var got []goldenEntry
	for _, c := range dagGoldenGrid(t) {
		for _, solver := range []string{"dag", "dag-crossover"} {
			res, err := malsched.Schedule(c.in, &malsched.Options{Solver: solver, Edges: c.edges})
			if err != nil {
				t.Fatalf("Schedule(%s, %s/%s): %v", c.in.Name, c.shape, solver, err)
			}
			// Every pinned plan must also satisfy the precedence verifier:
			// a snapshot of a constraint-violating plan would pin a bug.
			if err := malsched.VerifyPrecedence(c.in, c.edges, res.Plan); err != nil {
				t.Fatalf("%s %s/%s: %v", c.in.Name, c.shape, solver, err)
			}
			got = append(got, goldenEntry{
				Instance: c.in.Name,
				Variant:  c.shape + "/" + solver,
				Makespan: hexFloat(res.Makespan),
				Lower:    hexFloat(res.LowerBound),
				Branch:   res.Branch,
				PlanHash: hashPlan(res.Plan),
			})
		}
	}

	if *updateGolden {
		f, err := os.Create(goldenDAGPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden DAG entries to %s", len(got), goldenDAGPath)
		return
	}

	raw, err := os.ReadFile(goldenDAGPath)
	if err != nil {
		t.Fatalf("reading golden DAG snapshot (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden DAG snapshot has %d entries, current grid produces %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden DAG mismatch for %s/%s:\n got  %+v\n want %+v",
				got[i].Instance, got[i].Variant, got[i], want[i])
		}
	}
}
