package malsched_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"

	"malsched"
	"malsched/internal/instance"
)

// -update regenerates testdata/golden_schedule.json from the current code.
// The committed file was generated before the solver-registry refactor, so
// passing without -update proves the refactored pipeline is bit-identical
// to the pre-refactor malsched.Schedule on the seeded grid.
var updateGolden = flag.Bool("update", false, "rewrite the golden schedule snapshot")

const goldenPath = "testdata/golden_schedule.json"

// goldenEntry pins one (instance, options) cell: exact float bits of the
// certificates plus a hash of every placement in the plan.
type goldenEntry struct {
	Instance string `json:"instance"`
	Variant  string `json:"variant"`
	Makespan string `json:"makespan"` // hex float: exact bits
	Lower    string `json:"lower"`    // hex float: exact bits
	Branch   string `json:"branch"`
	PlanHash string `json:"plan_hash"` // FNV-1a over all placements
}

// goldenGrid returns the seeded instance grid the snapshot covers: every
// generator family crossed with small and large machines.
func goldenGrid(t *testing.T) []*malsched.Instance {
	t.Helper()
	gens := instance.Families()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	var ins []*malsched.Instance
	for _, name := range names {
		for _, n := range []int{12, 40} {
			for _, m := range []int{8, 64} {
				for seed := int64(1); seed <= 2; seed++ {
					ins = append(ins, gens[name](seed, n, m))
				}
			}
		}
	}
	return ins
}

func hashPlan(p *malsched.Plan) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|", p.Algorithm)
	for _, pl := range p.Placements {
		fmt.Fprintf(h, "%d:%x:%d:%d:", pl.Task, math.Float64bits(pl.Start), pl.Width, pl.First)
		for _, q := range pl.ProcSet {
			fmt.Fprintf(h, "%d,", q)
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

func goldenEntryOf(t *testing.T, in *malsched.Instance, variant string, opts *malsched.Options) goldenEntry {
	t.Helper()
	res, err := malsched.Schedule(in, opts)
	if err != nil {
		t.Fatalf("Schedule(%s, %s): %v", in.Name, variant, err)
	}
	return goldenEntry{
		Instance: in.Name,
		Variant:  variant,
		Makespan: hexFloat(res.Makespan),
		Lower:    hexFloat(res.LowerBound),
		Branch:   res.Branch,
		PlanHash: hashPlan(res.Plan),
	}
}

// goldenVariants are the option sets pinned by the snapshot. Variants added
// after the snapshot was generated must resolve to one of these recorded
// outputs (see TestGoldenSchedule).
func goldenVariants() []struct {
	Name string
	Opts *malsched.Options
} {
	return []struct {
		Name string
		Opts *malsched.Options
	}{
		{"default", nil},
		{"compact", &malsched.Options{Compact: true}},
	}
}

func TestGoldenSchedule(t *testing.T) {
	ins := goldenGrid(t)
	var got []goldenEntry
	for _, in := range ins {
		for _, v := range goldenVariants() {
			got = append(got, goldenEntryOf(t, in, v.Name, v.Opts))
		}
	}

	if *updateGolden {
		f, err := os.Create(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden snapshot (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden snapshot has %d entries, current grid produces %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden mismatch for %s/%s:\n got  %+v\n want %+v",
				got[i].Instance, got[i].Variant, got[i], want[i])
		}
	}
}

// The refactored solve path must reproduce the pre-refactor snapshot not
// just by default but through every equivalent spelling: the explicit "mrt"
// solver — the acceptance criterion that the registry changed nothing
// observable.
func TestGoldenScheduleEquivalentOptions(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden snapshot (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[[2]string]goldenEntry, len(want))
	for _, e := range want {
		byKey[[2]string{e.Instance, e.Variant}] = e
	}

	spellings := []struct {
		Name string
		Opts malsched.Options
	}{
		{"solver=mrt", malsched.Options{Solver: "mrt"}},
	}
	for _, in := range goldenGrid(t) {
		ref, ok := byKey[[2]string{in.Name, "default"}]
		if !ok {
			t.Fatalf("no golden entry for %s/default", in.Name)
		}
		for _, sp := range spellings {
			opts := sp.Opts
			got := goldenEntryOf(t, in, sp.Name, &opts)
			got.Variant = ref.Variant
			if got != ref {
				t.Errorf("%s via %s diverged from the pre-refactor snapshot:\n got  %+v\n want %+v",
					in.Name, sp.Name, got, ref)
			}
		}
	}
}
