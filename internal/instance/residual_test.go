package instance

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"malsched/internal/task"
)

func TestResidualScalesAndTruncates(t *testing.T) {
	in := Mixed(3, 6, 8)
	c := Compile(in)

	ids := []int{4, 1}
	rem := []float64{0.25, 1}
	res, err := Residual(c, "res", 4, ids, rem)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != 4 || res.N() != 2 {
		t.Fatalf("shape: m=%d n=%d", res.M, res.N())
	}
	for k, id := range ids {
		got := res.Tasks[k]
		if got.Name != in.Tasks[id].Name {
			t.Fatalf("task %d name %q", k, got.Name)
		}
		if got.MaxProcs() != 4 {
			t.Fatalf("task %d not truncated: %d", k, got.MaxProcs())
		}
		for p := 1; p <= got.MaxProcs(); p++ {
			want := rem[k] * in.Tasks[id].Time(p)
			if got.Time(p) != want {
				t.Fatalf("task %d t(%d)=%g want %g", k, p, got.Time(p), want)
			}
		}
	}
	if err := Check(res); err != nil {
		t.Fatal(err)
	}
}

func TestResidualFullFractionsMatchOriginal(t *testing.T) {
	in := RandomMonotone(11, 5, 6)
	c := Compile(in)
	ids := make([]int, in.N())
	rem := make([]float64, in.N())
	for i := range ids {
		ids[i], rem[i] = i, 1
	}
	res, err := Residual(c, in.Name, in.M, ids, rem)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		a, b := res.Tasks[i].Times(), in.Tasks[i].Times()
		if len(a) != len(b) {
			t.Fatalf("task %d width %d vs %d", i, len(a), len(b))
		}
		for p := range a {
			if a[p] != b[p] {
				t.Fatalf("task %d t(%d): %g vs %g", i, p+1, a[p], b[p])
			}
		}
	}
}

func TestResidualRejects(t *testing.T) {
	in := MustNew("x", 4, []task.Task{task.MustNew("a", []float64{2, 1.2})})
	c := Compile(in)
	cases := []struct {
		name string
		err  error
		call func() (*Instance, error)
	}{
		{"nil compiled", ErrNilCompiled, func() (*Instance, error) { return Residual(nil, "r", 2, []int{0}, []float64{1}) }},
		{"len mismatch", nil, func() (*Instance, error) { return Residual(c, "r", 2, []int{0}, []float64{1, 1}) }},
		{"zero m", ErrNoProcs, func() (*Instance, error) { return Residual(c, "r", 0, []int{0}, []float64{1}) }},
		{"empty ids", ErrNoTasks, func() (*Instance, error) { return Residual(c, "r", 2, nil, nil) }},
		{"bad id", ErrBadTaskID, func() (*Instance, error) { return Residual(c, "r", 2, []int{7}, []float64{1}) }},
		{"neg id", ErrBadTaskID, func() (*Instance, error) { return Residual(c, "r", 2, []int{-1}, []float64{1}) }},
		{"zero fraction", ErrBadRemaining, func() (*Instance, error) { return Residual(c, "r", 2, []int{0}, []float64{0}) }},
		{"over fraction", ErrBadRemaining, func() (*Instance, error) { return Residual(c, "r", 2, []int{0}, []float64{1.5}) }},
	}
	for _, tc := range cases {
		_, err := tc.call()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.err != nil && !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v", tc.name, err)
		}
	}
}

// compiledEqual compares every table of two compiled views bit for bit.
func compiledEqual(t *testing.T, ctx string, got, want *Compiled) {
	t.Helper()
	if !reflect.DeepEqual(got.off, want.off) {
		t.Fatalf("%s: off diverged: %v vs %v", ctx, got.off, want.off)
	}
	for name, pair := range map[string][2][]float64{
		"times":  {got.times, want.times},
		"works":  {got.works, want.works},
		"global": {got.GlobalBreakpoints(), want.GlobalBreakpoints()},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %s length %d vs %d", ctx, name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s: %s[%d] = %v vs %v", ctx, name, i, pair[0][i], pair[1][i])
			}
		}
	}
	if math.Float64bits(got.maxTime) != math.Float64bits(want.maxTime) {
		t.Fatalf("%s: maxTime %v vs %v", ctx, got.maxTime, want.maxTime)
	}
	if !reflect.DeepEqual(got.seqOrder, want.seqOrder) {
		t.Fatalf("%s: seqOrder diverged: %v vs %v", ctx, got.seqOrder, want.seqOrder)
	}
}

// ResidualCompiled's parent-row reuse must be invisible: across random
// carve-outs — full and partial remaining fractions, truncated profiles on
// smaller machines — every compiled table must equal a from-scratch
// Compile(Residual(...)) bit for bit, including the merged segment axis.
func TestResidualCompiledMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for fam, gen := range Families() {
		parent := gen(5, 18, 12)
		c := Compile(parent)
		for trial := 0; trial < 30; trial++ {
			var ids []int
			var rem []float64
			for id := 0; id < parent.N(); id++ {
				if rng.Float64() < 0.5 {
					continue
				}
				ids = append(ids, id)
				if rng.Float64() < 0.4 {
					rem = append(rem, 0.05+0.95*rng.Float64())
				} else {
					rem = append(rem, 1.0)
				}
			}
			if len(ids) == 0 {
				ids, rem = []int{trial % parent.N()}, []float64{1}
			}
			m := 1 + rng.Intn(parent.M)
			in, rc, err := ResidualCompiled(c, "rc", m, ids, rem)
			if err != nil {
				t.Fatalf("%s trial %d: %v", fam, trial, err)
			}
			want, err := Residual(c, "rc", m, ids, rem)
			if err != nil {
				t.Fatalf("%s trial %d: reference: %v", fam, trial, err)
			}
			if !reflect.DeepEqual(in, want) {
				t.Fatalf("%s trial %d: residual instance diverged", fam, trial)
			}
			compiledEqual(t, fam, rc, Compile(in))
			if rc.Instance() != in {
				t.Fatalf("%s trial %d: compiled not anchored to its instance", fam, trial)
			}
		}
	}
}

// ResidualCompiled must agree with Residual on every rejection.
func TestResidualCompiledRejects(t *testing.T) {
	in := Mixed(3, 6, 8)
	c := Compile(in)
	cases := []struct {
		m   int
		ids []int
		rem []float64
	}{
		{4, []int{0}, []float64{0}},
		{4, []int{0}, []float64{1.5}},
		{4, []int{99}, []float64{1}},
		{0, []int{0}, []float64{1}},
		{4, nil, nil},
		{4, []int{0, 1}, []float64{1}},
	}
	for i, tc := range cases {
		_, _, err := ResidualCompiled(c, "bad", tc.m, tc.ids, tc.rem)
		if err == nil {
			t.Fatalf("case %d: accepted", i)
		}
		if _, wantErr := Residual(c, "bad", tc.m, tc.ids, tc.rem); wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("case %d: error diverged: %v vs %v", i, err, wantErr)
		}
	}
	if _, _, err := ResidualCompiled(nil, "nil", 4, []int{0}, []float64{1}); !errors.Is(err, ErrNilCompiled) {
		t.Fatalf("nil compiled: %v", err)
	}
}
