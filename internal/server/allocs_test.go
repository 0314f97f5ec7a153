//go:build !race

// Allocation budgets per layer of the memo-hit path. The race detector
// instruments allocations, so the file is excluded under -race.

package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/verify"
	"malsched/internal/wire"
)

func TestAllocBudgets(t *testing.T) {
	const n, m = 24, 16 // the benchmark's serve-hot shape
	in := instance.Mixed(9, n, m)
	frame := wire.AppendScheduleRequest(nil, in, nil, nil)
	sol, err := engine.Solve(in, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cert := verify.Certified{Plan: sol.Plan, Makespan: sol.Makespan, LowerBound: sol.LowerBound}

	s := New(Config{Workers: 1})
	serve := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(frame))
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	if code := serve(); code != http.StatusOK { // fills the memo
		t.Fatalf("HTTP %d", code)
	}
	var dst []byte // the seam's response buffer, reused like a pooled one

	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"wire.RouteKey", 0, func() {
			if _, _, err := wire.RouteKey(frame); err != nil {
				t.Fatal(err)
			}
		}},
		{"verify.Plan", 0, func() {
			if err := verify.Plan(in, cert, false); err != nil {
				t.Fatal(err)
			}
		}},
		{"verify.Plan contiguous", 0, func() {
			if err := verify.Plan(in, cert, true); err != nil {
				t.Fatal(err)
			}
		}},
		// The names' one string, the task slice, the slab, the instance:
		// constant in n. Reads 4; 29 (one string per name, the task slice
		// twice) before the names shared a string.
		{"wire.DecodeScheduleRequest", 4, func() {
			if _, _, _, err := wire.DecodeScheduleRequest(frame); err != nil {
				t.Fatal(err)
			}
		}},
		// A whole binary memo hit through the shard's handler, test
		// request and recorder included: a byte hit, so nothing of the
		// shard's but the minted request ID. Reads 26 (32 while every hit
		// decoded the frame and copied the memo's plan, 33 while the
		// constant Content-Type was built per response, 37 with the
		// outcome, the response and a copy of the plan on the heap, 65 with
		// per-name strings and a status-capturing writer around the
		// handler).
		{"memo-hit ServeHTTP", 26, func() {
			if code := serve(); code != http.StatusOK {
				t.Fatalf("HTTP %d", code)
			}
		}},
		// The same hit through the byte-level entry the routing tier calls:
		// the shard's own share, nothing of HTTP. Reads 0: the frame's walk,
		// the memo probe and the word-for-word compare allocate nothing, and
		// the response is the head and the entry's bytes appended to dst. 6
		// while every hit decoded the frame (4) and took the memo's copy of
		// the solution (2), 9 while the outcome, the response and a copy of
		// every placement took one allocation each.
		{"memo-hit Serve", 0, func() {
			status, _, out, _, _ := s.Serve(context.Background(), "/v1/schedule", wire.ContentType, frame, "alloc-test", dst[:0])
			if dst = out; status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
		}},
	} {
		if got := allocsAfterWarmUp(c.run); got > c.budget {
			t.Errorf("%s: %.1f allocs per run, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s: %.1f allocs per run (budget %.0f)", c.name, got, c.budget)
		}
	}
	if st := s.Stats().Shards[0]; st.MemoMisses != 1 || st.CompileMisses != 1 {
		t.Fatalf("the timed requests were not memo hits: %+v", st)
	}
	if got, want := s.byteHits.Value(), s.Stats().Shards[0].MemoHits-1; got != want {
		t.Fatalf("%d byte hits of %d repeat hits", got, want)
	}
}

// allocsAfterWarmUp is allocsPerRun(200, f) after f has run warmUp
// times: a process's first allocations can be small enough for the
// runtime's tiny allocator, whose count lags, so a budget read on a fresh
// process can hide one (obs.TestAllocBudgetRequestID starts far along the
// request-ID sequence for the same reason).
func allocsAfterWarmUp(f func()) float64 {
	for range warmUp {
		f()
	}
	return allocsPerRun(200, f)
}

// allocsPerRun is testing.AllocsPerRun(runs, f) — one call to warm, then
// the average over runs calls on one P — with the collector off across the
// calls. A GC cycle inside the count would add its own runtime work (the
// pools it empties are refilled by allocating), which grows with the
// cycles a run sees, so under a small GOGC a budget would fail on code that
// allocates what it always did.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

const warmUp = 100

// A memo entry's first verified binary hit takes the full path — decode,
// the engine's identity check and copy of the plan, verify, encode — and
// attaches the encoded answer to the entry, through the byte-level entry:
// every run the first hit of a 24×16 entry filled beforehand. Reads 8: the
// decode 4, the memo's copy of the solution 2, the encoded answer and its
// box in the entry 2. The entry's every later hit is a byte hit (0, in
// TestAllocBudgets).
func TestAllocBudgetFirstHit(t *testing.T) {
	const n, m, runs, budget = 24, 16, 200, 8
	frames := make([][]byte, warmUp+runs+1) // allocsPerRun adds a warm-up call to ours
	s := New(Config{Workers: 1})
	for i := range frames {
		frames[i] = wire.AppendScheduleRequest(nil, instance.Mixed(int64(2000+i), n, m), nil, nil)
		if status, _, _, _, _ := s.Serve(context.Background(), "/v1/schedule", wire.ContentType, frames[i], "alloc-test", nil); status != http.StatusOK {
			t.Fatalf("status %d", status) // fills the memo
		}
	}
	var dst []byte
	next := 0
	hit := func() {
		status, _, out, _, _ := s.Serve(context.Background(), "/v1/schedule", wire.ContentType, frames[next], "alloc-test", dst[:0])
		next++
		if dst = out; status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	if got := allocsAfterWarmUp(hit); got > budget {
		t.Errorf("first memo hit: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("first memo hit: %.1f allocs per run (budget %d)", got, budget)
	}
	if st := s.Stats().Shards[0]; st.MemoMisses != uint64(len(frames)) || st.MemoHits != uint64(len(frames)) || s.byteHits.Value() != 0 {
		t.Fatalf("the timed requests were not all first hits: %+v, %d byte hits", st, s.byteHits.Value())
	}
}

// A whole binary memo miss through the shard's handler: decode, compile,
// the λ-search, verify, encode — every run a fresh 24×16 instance, test
// request and recorder included. The search's share is what
// core.TestApproximateAllocBudget bounds (its state and the one schedule it
// returns); the rest is the instance and its compiled tables.
func TestAllocBudgetMemoMiss(t *testing.T) {
	// Reads 46: 47 while the constant Content-Type was built per response;
	// 51 before the outcome, the response and a copy of the plan left the
	// heap; 58 before the cold search's one λ-index; 68 before the
	// search stopped copying out every accepted
	// probe's schedule; 74 before Compile stopped building the breakpoint
	// axis (three allocations for seven) and a new instance's segment ranges
	// became one list instead of a map; 102 before the decode shared one
	// string.
	const n, m, runs, budget = 24, 16, 200, 46
	frames := make([][]byte, runs+2) // allocsPerRun adds a warm-up call to ours
	for i := range frames {
		frames[i] = wire.AppendScheduleRequest(nil, instance.Mixed(int64(1000+i), n, m), nil, nil)
	}
	s := New(Config{Workers: 1})
	next := 0
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(frames[next]))
		next++
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d", rec.Code)
		}
	}
	serve() // warm pools and the worker's Scratch
	if got := allocsPerRun(runs, serve); got > budget {
		t.Errorf("memo-miss ServeHTTP: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("memo-miss ServeHTTP: %.1f allocs per run (budget %d)", got, budget)
	}
	if st := s.Stats().Shards[0]; st.MemoHits != 0 || st.MemoMisses != runs+2 {
		t.Fatalf("the timed requests were not all memo misses: %+v", st)
	}
}

// A whole binary DAG memo miss through the shard's handler: a wire/v2 graph
// frame, solver "dag" — decode, five edge validations (handler, engine,
// NewGraph, verify.Precedence in the solver and again in the handler),
// compile, the precedence solve, both verifies, encode — every run a fresh
// 16×8 instance, the benchmark's serve-dag shapes in turn. The solve's own
// share is what precedence.TestSolveAllocBudget bounds (9). Reads 57: 59
// while the options were decoded into a struct and a solver name of their
// own, 60 while the constant Content-Type was built per response, 64 with
// the outcome, the response and a copy of the plan on the heap, 318
// before candidates were scored on processor counts and the segment
// cache's entries recycled, 124 before the decode shared one string, 104
// before Compile stopped building the breakpoint axis, 100 before the
// successor lists decoded into one slab, 89 while the memo's copy took one
// allocation per processor set and the edge gates and verify.Precedence
// allocated their buffers per call.
func TestAllocBudgetDAGMiss(t *testing.T) {
	const n, m, runs, budget = 16, 8, 200, 57
	outTree, err := precedence.OutTreeEdges(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, runs+2) // allocsPerRun adds a warm-up call to ours
	for i := range frames {
		seed := int64(1000 + i)
		graph := [][][]int{precedence.ChainEdges(n), outTree, precedence.RandomEdges(seed, n, 0.3)}[i%3]
		frames[i] = wire.AppendScheduleRequest(nil, instance.Mixed(seed, n, m), graph,
			&wire.RequestOptions{Solver: "dag"})
	}
	s := New(Config{Workers: 1})
	next := 0
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(frames[next]))
		next++
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d", rec.Code)
		}
	}
	serve() // warm pools and the worker's Scratch
	if got := allocsPerRun(runs, serve); got > budget {
		t.Errorf("DAG memo-miss ServeHTTP: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("DAG memo-miss ServeHTTP: %.1f allocs per run (budget %d)", got, budget)
	}
	if st := s.Stats().Shards[0]; st.MemoHits != 0 || st.MemoMisses != runs+2 {
		t.Fatalf("the timed requests were not all memo misses: %+v", st)
	}
}
