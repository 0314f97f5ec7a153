package instance

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"malsched/internal/task"
)

// compiledTestInstances is a spread of generator-family workloads plus a
// breakpoint-dense one (harmonic profiles: every t(p) = T/p is distinct, so
// every profile entry is its own breakpoint).
func compiledTestInstances() []*Instance {
	var ins []*Instance
	for name, gen := range Families() {
		_ = name
		for seed := int64(1); seed <= 3; seed++ {
			ins = append(ins, gen(seed, 20, 12))
		}
	}
	ins = append(ins, breakpointDense(7, 24, 16))
	return ins
}

// breakpointDense builds an instance whose profiles have all-distinct
// execution times (near-linear speedup with an irrational-ish skew), the
// worst case for the breakpoint tables: n·m distinct thresholds.
func breakpointDense(seed int64, n, m int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]task.Task, n)
	for i := range tasks {
		w := 1 + 20*rng.Float64()
		times := make([]float64, m)
		for p := 1; p <= m; p++ {
			times[p-1] = w / (float64(p) * (1 + 0.001*float64(i+p)))
		}
		tasks[i] = task.MustNew("dense", task.Monotonize(times))
	}
	return MustNew("breakpoint-dense", m, tasks)
}

// Every threshold must be float-exact against the predicate it compiles:
// Leq(t, b) holds and Leq(t, prevfloat(b)) does not (unless b = 0).
func TestCompiledThresholdsExact(t *testing.T) {
	for _, in := range compiledTestInstances() {
		c := Compile(in)
		for i := range in.Tasks {
			row := c.Breakpoints(i)
			for p := 1; p <= c.MaxProcs(i); p++ {
				tv := c.Time(i, p)
				b := row[p-1]
				if !task.Leq(tv, b) {
					t.Fatalf("%s: task %d p=%d: predicate false at its own threshold %v (t=%v)", in.Name, i, p, b, tv)
				}
				if b > 0 {
					if prev := math.Nextafter(b, math.Inf(-1)); task.Leq(tv, prev) {
						t.Fatalf("%s: task %d p=%d: threshold %v not minimal (still true at %v)", in.Name, i, p, b, prev)
					}
				}
			}
		}
	}
}

// hostileInstances are tables built around validation, each holding
// +Inf, NaN, zero or negative times, or times on either side of the edge
// of the domain where a deadline resolves to τ. The first three stay
// inside it; the others put every lookup on the task.Leq fallback.
func hostileInstances() []*Instance {
	edge := boundLimit
	past := math.Nextafter(edge, math.Inf(1))
	inf, nan := math.Inf(1), math.NaN()
	mk := func(name string, tasks ...task.Task) *Instance {
		return &Instance{Name: name, M: 6, Tasks: tasks}
	}
	return []*Instance{
		mk("nan zero negative", unchecked(5, nan, 2, 1), unchecked(nan, 3, nan), unchecked(0, 0, -1),
			unchecked(2, -1, 1), unchecked(math.Inf(-1), -math.MaxFloat64), unchecked(5e-324, 0)),
		mk("at the domain edge", unchecked(edge, 1e300, 1), unchecked(edge, edge), unchecked(3, 2)),
		mk("rising", unchecked(1, 2, 3, 4), unchecked(3, 5, 2, 8, 1)),
		mk("past the domain edge", unchecked(past, 1e300, 1), unchecked(3, 2)),
		mk("max float", unchecked(math.MaxFloat64, edge, 1), unchecked(3, 2)),
		mk("inf", unchecked(inf, 3, 1), unchecked(5, nan, 2, inf, 1), unchecked(0, -1)),
	}
}

// Gamma must agree with task.Canonical everywhere — random deadlines plus
// the adversarial ones: each breakpoint and its float neighbours, where an
// inexact bound would first diverge, and on the hostile tables the special
// deadlines and both sides of the domain edge. Both the τ path and the
// task.Leq fallback must be exercised.
func TestCompiledGammaMatchesCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edge := boundLimit
	special := []float64{0, 5e-324, 1, 1e300, math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1)),
		math.MaxFloat64, math.Inf(1), math.NaN(), -1}
	var exact, fallback int
	for _, in := range append(compiledTestInstances(), hostileInstances()...) {
		c := Compile(in)
		lambdas := append([]float64(nil), special...)
		for _, b := range c.GlobalBreakpoints() {
			lambdas = append(lambdas, b, math.Nextafter(b, math.Inf(1)))
			if b > 0 {
				lambdas = append(lambdas, math.Nextafter(b, math.Inf(-1)))
			}
		}
		for k := 0; k < 100; k++ {
			lambdas = append(lambdas, 50*rng.Float64())
		}
		for _, l := range lambdas {
			if c.Bound(l).exact {
				exact++
			} else {
				fallback++
			}
			for i, tk := range in.Tasks {
				wantG, wantOK := tk.Canonical(l)
				gotG, gotOK := c.Gamma(i, l)
				if wantG != gotG || wantOK != gotOK {
					t.Fatalf("%s: task %d λ=%v: Gamma=(%d,%v), Canonical=(%d,%v)",
						in.Name, i, l, gotG, gotOK, wantG, wantOK)
				}
			}
		}
	}
	if exact == 0 || fallback == 0 {
		t.Fatalf("deadlines resolved exactly %d, through the fallback %d: both paths must run", exact, fallback)
	}
}

// The canonical allotment vector must be constant between consecutive
// global breakpoints and change at each one: sampling a segment at its left
// edge, just inside, in the middle and just before the right edge yields
// one vector, and crossing into the next segment changes it.
func TestCompiledPiecewiseConstantAllotment(t *testing.T) {
	gammaVec := func(c *Compiled, l float64) []int {
		v := make([]int, c.N())
		for i := range v {
			g, ok := c.Gamma(i, l)
			if !ok {
				g = -1
			}
			v[i] = g
		}
		return v
	}
	for _, in := range compiledTestInstances() {
		c := Compile(in)
		bks := c.GlobalBreakpoints()
		limit := len(bks)
		if limit > 200 {
			limit = 200 // the dense instance has thousands of segments
		}
		for k := 0; k < limit; k++ {
			lo := bks[k]
			hi := math.Inf(1)
			if k+1 < len(bks) {
				hi = bks[k+1]
			}
			ref := gammaVec(c, lo)
			samples := []float64{math.Nextafter(lo, math.Inf(1))}
			if !math.IsInf(hi, 1) {
				samples = append(samples, lo+(hi-lo)/2, math.Nextafter(hi, math.Inf(-1)))
			}
			for _, l := range samples {
				if l < lo || l >= hi {
					continue // degenerate one-ulp segment
				}
				if got := gammaVec(c, l); !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s: allotment not constant on segment [%v,%v): %v at λ=%v vs %v",
						in.Name, lo, hi, got, l, ref)
				}
				if c.Segment(l) != c.Segment(lo) {
					t.Fatalf("%s: λ=%v and %v disagree on segment index within [%v,%v)", in.Name, l, lo, lo, hi)
				}
			}
			if lo > 0 {
				below := gammaVec(c, math.Nextafter(lo, math.Inf(-1)))
				if reflect.DeepEqual(below, ref) {
					t.Fatalf("%s: allotment did not change at breakpoint %v", in.Name, lo)
				}
			}
		}
	}
}

// The flattened matrices and the precompiled sequential order must mirror
// the task structs exactly. SeqOrder is held to the sort the malleable
// list used to run per probe on the task structs — stable, by
// non-increasing t(1) — on an instance full of t(1) ties too, where only
// stability decides the order.
func TestCompiledTablesMatchTasks(t *testing.T) {
	tied := make([]task.Task, 12)
	for i := range tied {
		tied[i] = task.Linear("tied", float64(1+i%3), 4)
	}
	for _, in := range append(compiledTestInstances(), MustNew("seq-ties", 4, tied)) {
		c := Compile(in)
		for i, tk := range in.Tasks {
			if c.MaxProcs(i) != tk.MaxProcs() {
				t.Fatalf("%s: task %d width %d != %d", in.Name, i, c.MaxProcs(i), tk.MaxProcs())
			}
			for p := 1; p <= tk.MaxProcs(); p++ {
				if c.Time(i, p) != tk.Time(p) || c.Work(i, p) != tk.Work(p) {
					t.Fatalf("%s: task %d p=%d matrix mismatch", in.Name, i, p)
				}
			}
			if c.SeqTime(i) != tk.SeqTime() {
				t.Fatalf("%s: task %d SeqTime mismatch", in.Name, i)
			}
		}
		want := make([]int, in.N())
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return in.Tasks[want[a]].SeqTime() > in.Tasks[want[b]].SeqTime()
		})
		if !reflect.DeepEqual(c.SeqOrder(), want) {
			t.Fatalf("%s: SeqOrder %v != stable sort by non-increasing SeqTime %v", in.Name, c.SeqOrder(), want)
		}
	}
}

// Compile must be safe on malformed instances built around validation —
// callers may compile before instance.Check has run.
func TestCompileDefensive(t *testing.T) {
	if Compile(nil) != nil {
		t.Fatal("Compile(nil) != nil")
	}
	for _, in := range []*Instance{
		{Name: "no-tasks", M: 4},
		{Name: "zero-task", M: 2, Tasks: make([]task.Task, 3)}, // empty profiles
	} {
		c := Compile(in)
		if c == nil {
			t.Fatalf("%s: Compile returned nil", in.Name)
		}
		for i := 0; i < c.N(); i++ {
			if g, ok := c.Gamma(i, 1); ok {
				t.Fatalf("%s: empty profile reported γ=%d", in.Name, g)
			}
		}
	}
}

// Compile leaves the merged breakpoint axis unbuilt; whoever asks first
// builds it, once, and concurrent first callers — half through Segment,
// half through GlobalBreakpoints — all read the axis a test-side sort and
// dedup of the per-task rows yields. Run under -race in CI.
func TestAxisIsLazyAndRaceFree(t *testing.T) {
	for _, in := range compiledTestInstances() {
		c := Compile(in)
		if AxisBuilt(c) {
			t.Fatalf("%s: Compile built the breakpoint axis", in.Name)
		}
		want := ReferenceAxis(c)
		probes := append([]float64{0, math.Inf(1)}, want...)

		const callers = 8
		axes := make([][]float64, callers)
		segs := make([][]int, callers)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g%2 == 0 {
					axes[g] = c.GlobalBreakpoints()
				}
				for _, l := range probes {
					segs[g] = append(segs[g], c.Segment(l))
				}
				axes[g] = c.GlobalBreakpoints()
			}()
		}
		wg.Wait()

		for g := 0; g < callers; g++ {
			if len(axes[g]) != len(want) {
				t.Fatalf("%s: caller %d read %d breakpoints, reference %d", in.Name, g, len(axes[g]), len(want))
			}
			for k, b := range want {
				if math.Float64bits(axes[g][k]) != math.Float64bits(b) {
					t.Fatalf("%s: caller %d breakpoint %d = %v, reference %v", in.Name, g, k, axes[g][k], b)
				}
			}
			for k, l := range probes {
				if ref := ReferenceSegment(want, l); segs[g][k] != ref {
					t.Fatalf("%s: caller %d Segment(%v) = %d, reference %d", in.Name, g, l, segs[g][k], ref)
				}
			}
		}
	}
}

// BenchmarkCompile compiles distinct serve-cold-shaped instances in turn,
// so no table stays warm in cache across iterations.
func BenchmarkCompile(b *testing.B) { benchCompile(b, false) }

// BenchmarkCompileAxis adds the merged breakpoint axis, what the first
// traced solve on a compiled instance pays: the difference to
// BenchmarkCompile is the axis build.
func BenchmarkCompileAxis(b *testing.B) { benchCompile(b, true) }

func benchCompile(b *testing.B, axis bool) {
	ins := make([]*Instance, 2048)
	for k := range ins {
		ins[k] = Mixed(int64(k+1), 24, 16)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		c := Compile(ins[i%len(ins)])
		if axis {
			c.GlobalBreakpoints()
		}
	}
}
