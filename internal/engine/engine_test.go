package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"malsched/internal/core"
	"malsched/internal/instance"
	"malsched/internal/schedule"
	"malsched/internal/task"
)

// testFleet generates a diverse fleet of instances across every generator
// family — the acceptance workload for batch-vs-sequential identity.
func testFleet(t testing.TB, perFamily int) []*instance.Instance {
	t.Helper()
	var ins []*instance.Instance
	fams := instance.Families()
	names := []string{"mixed", "random-monotone", "comm-heavy", "wide-parallel", "powerlaw-0.7"}
	for _, name := range names {
		gen := fams[name]
		for s := 0; s < perFamily; s++ {
			n := 10 + 7*(s%5)
			m := []int{4, 8, 16, 32}[s%4]
			ins = append(ins, gen(int64(s), n, m))
		}
	}
	return ins
}

func sameSolution(a, b Solution) bool {
	return a.Makespan == b.Makespan && // bit-identical, no tolerance
		a.LowerBound == b.LowerBound &&
		a.Branch == b.Branch &&
		a.Plan.Algorithm == b.Plan.Algorithm &&
		reflect.DeepEqual(a.Plan.Placements, b.Plan.Placements)
}

// The acceptance criterion: ScheduleBatch over ≥ 100 generated instances is
// bit-identical to sequential Solve calls, with memoisation and worker
// concurrency enabled.
func TestBatchMatchesSequentialBitIdentical(t *testing.T) {
	ins := testFleet(t, 24) // 5 families × 24 = 120 instances
	if len(ins) < 100 {
		t.Fatalf("fleet too small: %d", len(ins))
	}

	want := make([]Solution, len(ins))
	for i, in := range ins {
		sol, err := Solve(in, Options{})
		if err != nil {
			t.Fatalf("sequential %s: %v", in.Name, err)
		}
		want[i] = sol
	}

	e := New(Config{Workers: 8})
	outs := e.ScheduleBatch(ins)
	if len(outs) != len(ins) {
		t.Fatalf("got %d outcomes for %d instances", len(outs), len(ins))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("batch %s: %v", ins[i].Name, o.Err)
		}
		if o.Index != i || o.In != ins[i] {
			t.Fatalf("outcome %d misrouted (index %d)", i, o.Index)
		}
		if !sameSolution(o.Solution, want[i]) {
			t.Fatalf("batch result for %s differs from sequential:\nbatch: mk=%v lb=%v %s\nseq:   mk=%v lb=%v %s",
				ins[i].Name, o.Makespan, o.LowerBound, o.Branch,
				want[i].Makespan, want[i].LowerBound, want[i].Branch)
		}
		if err := schedule.Validate(ins[i], o.Plan, o.Branch != "twy-list"); err != nil {
			t.Fatalf("batch plan for %s invalid: %v", ins[i].Name, err)
		}
	}
}

// Baseline options must flow through the batch path too.
func TestBatchWithBaselineOptions(t *testing.T) {
	ins := testFleet(t, 3)
	e := New(Config{Workers: 4, Options: Options{Solver: "seq-lpt"}})
	for _, o := range e.ScheduleBatch(ins) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if o.Branch != "seq-lpt" {
			t.Fatalf("branch = %q, want seq-lpt", o.Branch)
		}
	}
}

func TestMemoHitIsIsolatedCopy(t *testing.T) {
	in := instance.Mixed(1, 25, 8)
	e := New(Config{Workers: 1})

	first, err := e.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(first, second) {
		t.Fatal("memo hit returned a different solution")
	}
	st := e.Stats()
	if st.MemoHits != 1 || st.MemoMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// Corrupt the returned plan; the memo must be unaffected.
	second.Plan.Placements[0].Start = -1e9
	third, err := e.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if third.Plan.Placements[0].Start == -1e9 {
		t.Fatal("memo entry aliases a returned plan")
	}
	if !sameSolution(first, third) {
		t.Fatal("memo entry corrupted by caller mutation")
	}
}

// Renamed copies of the same workload must hit the memo (the fingerprint is
// name-independent), while different options or profiles must not.
func TestFingerprintSemantics(t *testing.T) {
	a := instance.Mixed(3, 20, 8)
	b := instance.MustNew("completely-different-name", a.M, a.Tasks)
	if fingerprint(a, Options{}) != fingerprint(b, Options{}) {
		t.Fatal("fingerprint depends on the instance name")
	}
	if fingerprint(a, Options{}) == fingerprint(a, Options{Compact: true}) {
		t.Fatal("fingerprint ignores Compact")
	}
	if fingerprint(a, Options{}) == fingerprint(a, Options{Eps: 0.1}) {
		t.Fatal("fingerprint ignores Eps")
	}
	if fingerprint(a, Options{}) == fingerprint(a, Options{Solver: "seq-lpt"}) {
		t.Fatal("fingerprint ignores Solver")
	}
	c := instance.Mixed(4, 20, 8) // same shape, different profiles
	if fingerprint(a, Options{}) == fingerprint(c, Options{}) {
		t.Fatal("fingerprint ignores the profiles")
	}

	e := New(Config{Workers: 1})
	if _, err := e.Schedule(a); err != nil {
		t.Fatal(err)
	}
	out, err := e.Schedule(b)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().MemoHits != 1 {
		t.Fatal("renamed identical workload missed the memo")
	}
	want, err := Solve(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(out, want) {
		t.Fatal("memo hit for renamed workload returned a different solution")
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(Config{Workers: 1, MemoCapacity: 2})
	ins := []*instance.Instance{
		instance.Mixed(1, 12, 8),
		instance.Mixed(2, 12, 8),
		instance.Mixed(3, 12, 8),
	}
	for _, in := range ins {
		if _, err := e.Schedule(in); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().MemoEntries; got != 2 {
		t.Fatalf("memo holds %d entries, capacity 2", got)
	}
	// ins[0] is the LRU victim: rescheduling it must miss…
	if _, err := e.Schedule(ins[0]); err != nil {
		t.Fatal(err)
	}
	if hits := e.Stats().MemoHits; hits != 0 {
		t.Fatalf("expected evicted entry to miss, got %d hits", hits)
	}
	// …and ins[2] (most recent) must hit.
	if _, err := e.Schedule(ins[2]); err != nil {
		t.Fatal(err)
	}
	if hits := e.Stats().MemoHits; hits != 1 {
		t.Fatalf("expected most-recent entry to hit, got %d hits", hits)
	}
}

func TestMemoDisabled(t *testing.T) {
	e := New(Config{Workers: 1, MemoCapacity: -1})
	in := instance.Mixed(1, 12, 8)
	for i := 0; i < 2; i++ {
		if _, err := e.Schedule(in); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.MemoHits != 0 || st.MemoMisses != 0 || st.MemoEntries != 0 {
		t.Fatalf("disabled memo recorded activity: %+v", st)
	}
}

// The engine's timeout plumbing: the deadline timer closes the interrupt
// channel, the solver's ErrInterrupted is mapped to ErrTimeout, the failure
// is counted and isolated. The solver is injected and blocks until the
// interrupt fires, so the test is deterministic regardless of machine speed
// (core's own between-probe polling is covered by the core package tests).
func TestTimeoutIsolatesInstance(t *testing.T) {
	orig := solveFn
	solveFn = func(in *instance.Instance, o Options, sc *core.Scratch, interrupt <-chan struct{}, ci *instance.Compiled, warm *core.WarmStart) (Solution, error) {
		if in.Name == "slow" {
			<-interrupt // simulate a search that outlives its deadline
			return Solution{}, fmt.Errorf("%w (instance %q)", core.ErrInterrupted, in.Name)
		}
		return orig(in, o, sc, interrupt, ci, warm)
	}
	defer func() { solveFn = orig }()

	small := instance.Mixed(2, 10, 4)
	slow := instance.MustNew("slow", small.M, small.Tasks)
	e := New(Config{Workers: 2, Timeout: time.Millisecond, MemoCapacity: -1})
	out := e.ScheduleBatch([]*instance.Instance{slow, small})
	if out[0].Err == nil || !errors.Is(out[0].Err, ErrTimeout) {
		t.Fatalf("want ErrTimeout for the slow instance, got %v", out[0].Err)
	}
	if out[1].Err != nil {
		t.Fatalf("healthy instance failed alongside a timeout: %v", out[1].Err)
	}
	st := e.Stats()
	if st.Timeouts != 1 || st.Errors != 1 {
		t.Fatalf("timeout not counted: %+v", st)
	}

	// A worker that timed out stays healthy. Check on a timeout-free
	// engine: under -race slowdown even a small real solve could trip the
	// 1ms deadline of e and flake the assertion.
	e2 := New(Config{Workers: 1})
	if _, err := e2.Schedule(instance.Mixed(3, 12, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestPanicIsolation(t *testing.T) {
	orig := solveFn
	var calls atomic.Int32
	solveFn = func(in *instance.Instance, o Options, sc *core.Scratch, interrupt <-chan struct{}, ci *instance.Compiled, warm *core.WarmStart) (Solution, error) {
		calls.Add(1)
		if in.Name == "boom" {
			panic("injected fault")
		}
		return orig(in, o, sc, interrupt, ci, warm)
	}
	defer func() { solveFn = orig }()

	good := instance.Mixed(1, 10, 4)
	bad := instance.MustNew("boom", good.M, good.Tasks)
	e := New(Config{Workers: 2, MemoCapacity: -1})
	out := e.ScheduleBatch([]*instance.Instance{good, bad, good})
	if out[1].Err == nil {
		t.Fatal("panicking instance reported no error")
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("healthy instance %d failed: %v", i, out[i].Err)
		}
	}
	st := e.Stats()
	if st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("solve called %d times, want 3", got)
	}
}

func TestNilInstance(t *testing.T) {
	e := New(Config{Workers: 1})
	out := e.ScheduleBatch([]*instance.Instance{nil, instance.Mixed(1, 8, 4)})
	if !errors.Is(out[0].Err, ErrNilInstance) {
		t.Fatalf("want ErrNilInstance, got %v", out[0].Err)
	}
	if out[1].Err != nil {
		t.Fatal(out[1].Err)
	}
}

func TestScheduleStream(t *testing.T) {
	ins := testFleet(t, 10) // 50 instances
	want := make([]Solution, len(ins))
	for i, in := range ins {
		sol, err := Solve(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sol
	}

	e := New(Config{Workers: 4})
	jobs := make(chan *instance.Instance)
	go func() {
		for _, in := range ins {
			jobs <- in
		}
		close(jobs)
	}()
	seen := make(map[int]bool)
	for o := range e.ScheduleStream(jobs) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		if seen[o.Index] {
			t.Fatalf("index %d emitted twice", o.Index)
		}
		seen[o.Index] = true
		if !sameSolution(o.Solution, want[o.Index]) {
			t.Fatalf("stream result %d differs from sequential", o.Index)
		}
	}
	if len(seen) != len(ins) {
		t.Fatalf("stream emitted %d outcomes for %d instances", len(seen), len(ins))
	}
}

func TestSolveUnknownBaseline(t *testing.T) {
	in := instance.Mixed(1, 8, 4)
	if _, err := Solve(in, Options{Solver: "nope"}); err == nil {
		t.Fatal("want error for unknown baseline")
	}
}

func TestLRUUnit(t *testing.T) {
	l := newLRU[Solution](2)
	k := func(i int) memoKey { return memoKey{hash: uint64(i), m: i, n: i} }
	v := func(i int) Solution { return Solution{Makespan: float64(i)} }
	l.put(k(1), v(1))
	l.put(k(2), v(2))
	if _, ok := l.get(k(1)); !ok {
		t.Fatal("lost entry 1")
	}
	l.put(k(3), v(3)) // evicts 2 (LRU after 1 was touched)
	if _, ok := l.get(k(2)); ok {
		t.Fatal("entry 2 should be evicted")
	}
	for _, i := range []int{1, 3} {
		got, ok := l.get(k(i))
		if !ok || got.Makespan != float64(i) {
			t.Fatalf("entry %d missing or wrong: %v %v", i, got, ok)
		}
	}
	// Overwrite refreshes in place.
	l.put(k(1), v(10))
	if got, _ := l.get(k(1)); got.Makespan != 10 {
		t.Fatalf("overwrite failed: %v", got.Makespan)
	}
	if l.len() != 2 {
		t.Fatalf("len = %d, want 2", l.len())
	}
}

// The engine under concurrent mixed use (same + distinct instances) must
// keep counters consistent; run with -race to exercise the memo's locking.
func TestConcurrentMixedUse(t *testing.T) {
	e := New(Config{Workers: 8})
	var ins []*instance.Instance
	for i := 0; i < 6; i++ {
		ins = append(ins, instance.Mixed(int64(i%3), 15, 8)) // 3 duplicated workloads
	}
	out := e.ScheduleBatch(ins)
	for _, o := range out {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	st := e.Stats()
	if st.Scheduled != 6 {
		t.Fatalf("scheduled = %d, want 6", st.Scheduled)
	}
	if st.MemoHits+st.MemoMisses != 6 {
		t.Fatalf("memo probes = %d, want 6", st.MemoHits+st.MemoMisses)
	}
	// With 3 distinct workloads, at most 3 entries are resident.
	if st.MemoEntries > 3 {
		t.Fatalf("memo entries = %d, want ≤ 3", st.MemoEntries)
	}
	_ = fmt.Sprintf("%+v", st)
}

// Portfolio options flow through the batch path, and the solution reports
// the winning solver and its probe count.
func TestBatchWithPortfolio(t *testing.T) {
	ins := testFleet(t, 2)[:6]
	e := New(Config{Workers: 3, Options: Options{Portfolio: []string{"mrt", "seq-lpt"}}})
	for i, o := range e.ScheduleBatch(ins) {
		if o.Err != nil {
			t.Fatalf("instance %d: %v", i, o.Err)
		}
		if o.Solution.Solver == "" {
			t.Fatalf("instance %d: no winning solver reported", i)
		}
		if err := schedule.Validate(ins[i], o.Plan, false); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
	if _, err := Solve(ins[0], Options{Solver: "mrt"}); err != nil {
		t.Fatal(err)
	}
	if sol, err := Solve(ins[0], Options{}); err != nil || sol.Probes == 0 {
		t.Fatalf("Probes not reported: %+v, %v", sol, err)
	}
}

// The memo key resolves the solver identity: the default shares entries
// with the explicit "mrt" spelling, and Trace — which cannot change
// results — is excluded.
func TestFingerprintSolverResolution(t *testing.T) {
	a := testFleet(t, 1)[0]
	if fingerprint(a, Options{}) != fingerprint(a, Options{Solver: "mrt"}) {
		t.Fatal("default and explicit mrt hash differently")
	}
	if fingerprint(a, Options{}) != fingerprint(a, Options{Trace: true}) {
		t.Fatal("Trace leaked into the memo key")
	}
	if fingerprint(a, Options{}) == fingerprint(a, Options{Portfolio: []string{"mrt"}}) {
		t.Fatal("portfolio ignored by the memo key")
	}
}

// A batch with poisoned instances — the silent-drop risk of the batch
// paths — must return one typed error per bad item while every sibling
// succeeds. The poison set is exactly what a caller can hand-roll around
// instance.New: zero processors, no tasks, a zero-value Task with no
// profile.
func TestBatchIsolatesPoisonedInstances(t *testing.T) {
	good := instance.Mixed(1, 10, 8)
	good2 := instance.RandomMonotone(2, 6, 4)
	poisoned := []*instance.Instance{
		good,
		{Name: "no-procs", M: 0, Tasks: good.Tasks},
		nil,
		{Name: "no-tasks", M: 4},
		good2,
		{Name: "nil-profile", M: 4, Tasks: make([]task.Task, 3)},
	}
	e := New(Config{Workers: 4})
	outs := e.ScheduleBatch(poisoned)
	if len(outs) != len(poisoned) {
		t.Fatalf("got %d outcomes for %d instances", len(outs), len(poisoned))
	}
	wantErr := map[int]error{1: ErrBadInstance, 2: ErrNilInstance, 3: ErrBadInstance, 5: ErrBadInstance}
	for i, o := range outs {
		if want, bad := wantErr[i]; bad {
			if !errors.Is(o.Err, want) {
				t.Errorf("item %d: got error %v, want %v", i, o.Err, want)
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("healthy sibling %d failed: %v", i, o.Err)
			continue
		}
		want, err := Solve(poisoned[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolution(o.Solution, want) {
			t.Errorf("healthy sibling %d result differs from sequential solve", i)
		}
	}
	st := e.Stats()
	if st.Errors != 4 {
		t.Errorf("Errors = %d, want 4", st.Errors)
	}
	if st.Panics != 0 {
		t.Errorf("Panics = %d, want 0 (poison must fail typed, not via recovery)", st.Panics)
	}
	if st.Scheduled != 2 {
		t.Errorf("Scheduled = %d, want 2", st.Scheduled)
	}
}

// ScheduleWith must honour per-call options (distinct memo entries per
// option set, results identical to a dedicated engine) and per-call
// timeouts.
func TestScheduleWith(t *testing.T) {
	in := instance.Mixed(3, 14, 8)
	e := New(Config{Workers: 1})

	mrt := e.ScheduleWith(in, Options{}, 0)
	if mrt.Err != nil {
		t.Fatal(mrt.Err)
	}
	lpt := e.ScheduleWith(in, Options{Solver: "seq-lpt"}, 0)
	if lpt.Err != nil {
		t.Fatal(lpt.Err)
	}
	if lpt.Branch != "seq-lpt" {
		t.Fatalf("branch = %q, want seq-lpt", lpt.Branch)
	}
	if sameSolution(mrt.Solution, lpt.Solution) {
		t.Fatal("per-call solver selection ignored")
	}

	// Same options again: memo hit with an identical solution.
	again := e.ScheduleWith(in, Options{Solver: "seq-lpt"}, 0)
	if !again.FromMemo || !sameSolution(again.Solution, lpt.Solution) {
		t.Fatalf("repeat call not served identically from memo (fromMemo=%v)", again.FromMemo)
	}

	// Results match a dedicated engine configured with the same options.
	want, err := New(Config{Workers: 1, Options: Options{Solver: "seq-lpt"}}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(lpt.Solution, want) {
		t.Fatal("ScheduleWith result differs from configured engine")
	}

	// A per-call timeout interrupts just that call, even on an engine with
	// no configured timeout (deterministic via the solveFn seam, same
	// idiom as TestTimeoutIsolatesInstance).
	orig := solveFn
	solveFn = func(in *instance.Instance, o Options, sc *core.Scratch, interrupt <-chan struct{}, ci *instance.Compiled, warm *core.WarmStart) (Solution, error) {
		if in.Name == "slow" {
			<-interrupt
			return Solution{}, fmt.Errorf("%w (instance %q)", core.ErrInterrupted, in.Name)
		}
		return orig(in, o, sc, interrupt, ci, warm)
	}
	defer func() { solveFn = orig }()
	// Memo disabled: the slow instance shares in's name-independent
	// fingerprint, and a memo hit would answer before the stub runs.
	e2 := New(Config{Workers: 1, MemoCapacity: -1})
	slowIn := instance.MustNew("slow", in.M, in.Tasks)
	slow := e2.ScheduleWith(slowIn, Options{}, time.Millisecond)
	if !errors.Is(slow.Err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", slow.Err)
	}
	// The worker stays healthy and untimed calls still succeed.
	if out := e2.ScheduleWith(in, Options{}, 0); out.Err != nil {
		t.Fatalf("untimed call failed after a per-call timeout: %v", out.Err)
	}
}
