package instance

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"malsched/internal/task"
)

func TestNewValidates(t *testing.T) {
	if _, err := New("x", 0, []task.Task{task.Sequential("a", 1, 1)}); err == nil {
		t.Fatal("want error for m=0")
	}
	if _, err := New("x", 2, nil); err == nil {
		t.Fatal("want error for no tasks")
	}
	in, err := New("ok", 2, []task.Task{task.Linear("a", 4, 8)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if in.Tasks[0].MaxProcs() != 2 {
		t.Fatalf("profile should be truncated to m=2, got %d", in.Tasks[0].MaxProcs())
	}
}

// NewOwned is New minus the copies: same errors, an equal instance, and the
// caller's slice — truncated in place — as its task list.
func TestNewOwnedMatchesNew(t *testing.T) {
	if _, err := NewOwned("x", 0, []task.Task{task.Sequential("a", 1, 1)}); !errors.Is(err, ErrNoProcs) {
		t.Fatalf("m=0: %v, want ErrNoProcs", err)
	}
	if _, err := NewOwned("x", 2, nil); !errors.Is(err, ErrNoTasks) {
		t.Fatalf("no tasks: %v, want ErrNoTasks", err)
	}
	tasks := func() []task.Task {
		return []task.Task{task.Linear("wide", 4, 8), task.Sequential("narrow", 3, 1)}
	}
	want, err := New("ok", 2, tasks())
	if err != nil {
		t.Fatal(err)
	}
	owned := tasks()
	got, err := NewOwned("ok", 2, owned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewOwned %+v, New %+v", got, want)
	}
	if &got.Tasks[0] != &owned[0] || owned[0].MaxProcs() != 2 {
		t.Fatal("NewOwned did not take the caller's slice over, truncated in place")
	}
}

func TestAggregates(t *testing.T) {
	in := MustNew("agg", 4, []task.Task{
		task.Linear("a", 4, 4),     // t(1)=4, t(4)=1
		task.Sequential("b", 3, 4), // t=3 everywhere
	})
	if got := in.MinTotalWork(); math.Abs(got-7) > 1e-12 {
		t.Fatalf("MinTotalWork = %v, want 7", got)
	}
	if got := in.MaxMinTime(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("MaxMinTime = %v, want 3", got)
	}
	if in.N() != 2 {
		t.Fatalf("N = %d", in.N())
	}
}

func TestScaleInstance(t *testing.T) {
	in := MustNew("s", 2, []task.Task{task.Sequential("a", 2, 2)})
	s := in.Scale(0.5)
	if s.Tasks[0].SeqTime() != 1 {
		t.Fatalf("scaled time = %v", s.Tasks[0].SeqTime())
	}
	if in.Tasks[0].SeqTime() != 2 {
		t.Fatal("Scale must not modify the receiver")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Mixed(42, 7, 5)
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.M != in.M || back.N() != in.N() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", back.M, back.N(), in.M, in.N())
	}
	for i := range in.Tasks {
		a, b := in.Tasks[i].Times(), back.Tasks[i].Times()
		for p := range a {
			if a[p] != b[p] {
				t.Fatalf("task %d time %d changed: %v vs %v", i, p, a[p], b[p])
			}
		}
	}
}

func TestReadJSONRejectsBadProfiles(t *testing.T) {
	bad := `{"name":"x","m":2,"tasks":[{"name":"a","times":[1,2]}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("want error for non-monotone profile in JSON")
	}
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Fatal("want error for malformed JSON")
	}
}

func TestGeneratorsDeterministicAndMonotone(t *testing.T) {
	for name, gen := range Families() {
		a := gen(7, 25, 16)
		b := gen(7, 25, 16)
		if a.N() != 25 || a.M != 16 {
			t.Fatalf("%s: wrong shape", name)
		}
		if !a.IsMonotone() {
			t.Fatalf("%s: generated non-monotone task", name)
		}
		for i := range a.Tasks {
			x, y := a.Tasks[i].Times(), b.Tasks[i].Times()
			for p := range x {
				if x[p] != y[p] {
					t.Fatalf("%s: not deterministic at task %d", name, i)
				}
			}
		}
		c := gen(8, 25, 16)
		same := true
		for i := range a.Tasks {
			x, y := a.Tasks[i].Times(), c.Tasks[i].Times()
			for p := range x {
				if x[p] != y[p] {
					same = false
				}
			}
		}
		if same {
			t.Fatalf("%s: seed has no effect", name)
		}
	}
}

func TestLPTAdversarialShape(t *testing.T) {
	in := LPTAdversarial(4)
	// 2·(m−1) tasks of paired sizes plus three of size m.
	if want := 2*(4-1) + 3; in.N() != want {
		t.Fatalf("N = %d, want %d", in.N(), want)
	}
	if in.Tasks[0].SeqTime() != 7 {
		t.Fatalf("first duration = %v, want 2m−1=7", in.Tasks[0].SeqTime())
	}
}

func TestOceanMeshRounds(t *testing.T) {
	a := OceanMesh(3, 16, 3, 0)
	b := OceanMesh(3, 16, 3, 1)
	if a.N() != b.N() {
		t.Fatalf("rounds changed task count: %d vs %d", a.N(), b.N())
	}
	if !a.IsMonotone() || !b.IsMonotone() {
		t.Fatal("ocean mesh tasks must be monotone")
	}
	diff := false
	for i := range a.Tasks {
		if a.Tasks[i].SeqTime() != b.Tasks[i].SeqTime() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("re-meshing rounds should perturb costs")
	}
}

func TestNonMonotoneMixed(t *testing.T) {
	raw := NonMonotoneMixed(11, 40, 8, 0.5, false)
	if raw.IsMonotone() {
		t.Fatal("unrepaired ablation workload should contain non-monotone tasks")
	}
	fixed := NonMonotoneMixed(11, 40, 8, 0.5, true)
	if !fixed.IsMonotone() {
		t.Fatal("repaired ablation workload must be monotone")
	}
}

func TestTwoShelfStressMonotone(t *testing.T) {
	in := TwoShelfStress(5, 32)
	if !in.IsMonotone() {
		t.Fatal("two-shelf stress tasks must be monotone")
	}
	if in.M != 32 {
		t.Fatalf("M = %d", in.M)
	}
}

// Check is the admission gate for hand-rolled instances: everything New
// builds passes, struct-literal poison fails typed.
func TestCheck(t *testing.T) {
	good := Mixed(1, 5, 4)
	if err := Check(good); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	cases := []struct {
		name string
		in   *Instance
		want error
	}{
		{"nil instance", nil, ErrNilInstance},
		{"zero processors", &Instance{Name: "m0", M: 0, Tasks: good.Tasks}, ErrNoProcs},
		{"negative processors", &Instance{Name: "mneg", M: -3, Tasks: good.Tasks}, ErrNoProcs},
		{"no tasks", &Instance{Name: "empty", M: 4}, ErrNoTasks},
		{"nil profile task", &Instance{Name: "zerotask", M: 4, Tasks: []task.Task{{}}}, task.ErrEmpty},
	}
	for _, tc := range cases {
		if err := Check(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
