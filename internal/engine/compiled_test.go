package engine

import (
	"testing"

	"malsched/internal/instance"
)

// The compiled-instance cache is keyed by the workload-only fingerprint:
// re-solving the same shape under different options (a memo miss) must hit
// the compiled cache, and a renamed copy of the workload must too.
func TestCompiledCacheKeyedByWorkload(t *testing.T) {
	e := New(Config{Workers: 1})
	in := instance.Mixed(4, 20, 16)
	if _, err := e.Schedule(in); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CompileMisses != 1 || st.CompileHits != 0 || st.CompiledEntries != 1 {
		t.Fatalf("after first solve: %+v", st)
	}

	// Same workload, different options: memo miss, compiled hit.
	if out := e.ScheduleWith(in, Options{Eps: 0.07}, 0); out.Err != nil {
		t.Fatal(out.Err)
	}
	st = e.Stats()
	if st.CompileMisses != 1 || st.CompileHits != 1 {
		t.Fatalf("options change recompiled: %+v", st)
	}

	// Renamed copy: instance hash is name-independent — memo hit, and the
	// memo hit path needs no tables at all.
	renamed := instance.MustNew("renamed", in.M, in.Tasks)
	if _, err := e.Schedule(renamed); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.MemoHits != 1 || st.CompileMisses != 1 || st.CompileHits != 1 {
		t.Fatalf("renamed copy: %+v", st)
	}

	// Caller-compiled tables bypass the cache entirely.
	c := e.CompiledFor(in) // one more hit
	out := e.ScheduleCompiled(in, c, Options{Eps: 0.11}, 0, Fingerprint(in, Options{Eps: 0.11}))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	st = e.Stats()
	if st.CompileHits != 2 || st.CompileMisses != 1 {
		t.Fatalf("ScheduleCompiled probed the cache: %+v", st)
	}
}

// Solvers without a dual search never consume compiled tables, so the
// engine must not compile for them — no wasted Compile, no cache pressure.
func TestNoCompileForNonProbingSolvers(t *testing.T) {
	e := New(Config{Workers: 1})
	in := instance.Mixed(6, 12, 8)
	for _, o := range []Options{{Solver: "seq-lpt"}, {Solver: "twy-ffdh"}} {
		if out := e.ScheduleWith(in, o, 0); out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	if st := e.Stats(); st.CompileMisses != 0 || st.CompileHits != 0 {
		t.Fatalf("baseline solves compiled: %+v", st)
	}
	// The portfolio includes mrt, so it does compile.
	if out := e.ScheduleWith(in, Options{Solver: "portfolio"}, 0); out.Err != nil {
		t.Fatal(out.Err)
	}
	if st := e.Stats(); st.CompileMisses != 1 {
		t.Fatalf("portfolio solve did not compile once: %+v", st)
	}
}

// Outcome.CompileNS is the table resolution the engine itself did: timed on
// a memo miss, zero on a memo hit, when the caller brought the tables, and
// for a solver that reads none — the serving tier's compile stage is this
// number.
func TestOutcomeCompileNS(t *testing.T) {
	e := New(Config{Workers: 1})
	in := instance.Mixed(5, 40, 32)
	if out := e.ScheduleWith(in, Options{}, 0); out.Err != nil || out.FromMemo || out.CompileNS <= 0 {
		t.Fatalf("memo miss: err=%v from_memo=%v compile_ns=%d, want a timed compilation", out.Err, out.FromMemo, out.CompileNS)
	}
	if out := e.ScheduleWith(in, Options{}, 0); out.Err != nil || !out.FromMemo || out.CompileNS != 0 {
		t.Fatalf("memo hit: err=%v from_memo=%v compile_ns=%d, want 0", out.Err, out.FromMemo, out.CompileNS)
	}
	o := Options{Eps: 0.07} // memo miss again
	if out := e.ScheduleCompiled(in, e.CompiledFor(in), o, 0, Fingerprint(in, o)); out.Err != nil || out.FromMemo || out.CompileNS != 0 {
		t.Fatalf("caller-supplied tables: err=%v from_memo=%v compile_ns=%d, want 0", out.Err, out.FromMemo, out.CompileNS)
	}
	if out := e.ScheduleWith(in, Options{Solver: "seq-lpt"}, 0); out.Err != nil || out.CompileNS != 0 {
		t.Fatalf("table-blind solver: err=%v compile_ns=%d, want 0", out.Err, out.CompileNS)
	}
}

// With the memo disabled the compiled cache is disabled too: every solve
// compiles fresh (counted as misses) and no entries are retained.
func TestCompiledCacheDisabledWithMemo(t *testing.T) {
	e := New(Config{Workers: 1, MemoCapacity: -1})
	in := instance.Mixed(4, 15, 8)
	for i := 0; i < 3; i++ {
		if _, err := e.Schedule(in); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CompileMisses != 3 || st.CompileHits != 0 || st.CompiledEntries != 0 {
		t.Fatalf("disabled cache: %+v", st)
	}
}

// One pass over the profiles keys both caches: the workload prefix the
// memo key forks from must sum to instanceKey, and a memo miss must file
// its tables under that key — a later CompiledFor hits them — across
// families, options and DAG edges.
func TestKeysForkWorkloadPrefix(t *testing.T) {
	for name, gen := range instance.Families() {
		for _, dims := range [][2]int{{1, 1}, {7, 3}, {24, 16}} {
			in := gen(5, dims[0], dims[1])
			chain := make([][]int, in.N())
			for i := 0; i+1 < in.N(); i++ {
				chain[i] = []int{i + 1}
			}
			opts := []Options{
				{},
				{Eps: 0.07, Compact: true},
				{Portfolio: []string{"mrt", "seq-lpt"}},
				{Solver: "seq-lpt"},
				{Solver: "dag", Edges: make([][]int, in.N())}, // the empty DAG
				{Solver: "dag", Edges: chain},
			}
			for k, o := range opts {
				memo, prefix := keyPair(in, o)
				if got := workloadKey(in, prefix); got != instanceKey(in) {
					t.Fatalf("%s %v options %d: forked key %+v, instanceKey %+v", name, dims, k, got, instanceKey(in))
				}
				if memo != fingerprint(in, o) || memo == instanceKey(in) {
					t.Fatalf("%s %v options %d: memo key %+v, fingerprint %+v", name, dims, k, memo, fingerprint(in, o))
				}
				e := New(Config{Workers: 1})
				if out := e.ScheduleWith(in, o, 0); out.Err != nil {
					t.Fatalf("%s %v options %d: %v", name, dims, k, out.Err)
				}
				if !WantsCompiled(o) {
					continue
				}
				before := e.Stats()
				e.CompiledFor(in)
				if st := e.Stats(); st.CompileMisses != before.CompileMisses || st.CompileHits != before.CompileHits+1 {
					t.Fatalf("%s %v options %d: tables filed by the miss not found by CompiledFor: %+v → %+v", name, dims, k, before, st)
				}
			}
		}
	}
}
