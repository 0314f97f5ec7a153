//go:build !race

// Allocation budgets per layer of the memo-hit path. The race detector
// instruments allocations, so the file is excluded under -race.

package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"malsched/internal/alloctest"
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

	alloctest.Hold(t, "wire.RouteKey", 0, func() {
		if _, _, err := wire.RouteKey(frame); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Hold(t, "verify.Plan", 0, func() {
		if err := verify.Plan(in, cert, false); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Hold(t, "verify.Plan contiguous", 0, func() {
		if err := verify.Plan(in, cert, true); err != nil {
			t.Fatal(err)
		}
	})
	// The names' one string, the task slice, the slab, the instance:
	// constant in n.
	alloctest.Hold(t, "wire.DecodeScheduleRequest", 4, func() {
		if _, _, _, err := wire.DecodeScheduleRequest(frame); err != nil {
			t.Fatal(err)
		}
	})
	// A whole binary memo hit through the shard's handler, test request
	// and recorder included: a byte hit, and the minted request ID, the
	// Content-Length value and the body cap allocate nothing, so all of it
	// is the test's.
	alloctest.Hold(t, "memo-hit ServeHTTP", 21, func() {
		if code := serve(); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
	})
	// The same hit through the byte-level entry the routing tier calls:
	// the shard's own share, nothing of HTTP. The frame's walk, the memo
	// probe and the word-for-word compare allocate nothing, and the
	// response is the head and the entry's bytes appended to dst.
	alloctest.Hold(t, "memo-hit Serve", 0, func() {
		status, _, out, _, _ := s.Serve(context.Background(), "/v1/schedule", wire.ContentType, frame, "alloc-test", dst[:0])
		if dst = out; status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	})
	if st := s.Stats().Shards[0]; st.MemoMisses != 1 || st.CompileMisses != 1 {
		t.Fatalf("the timed requests were not memo hits: %+v", st)
	}
	if got, want := s.byteHits.Value(), s.Stats().Shards[0].MemoHits-1; got != want {
		t.Fatalf("%d byte hits of %d repeat hits", got, want)
	}
}

// A memo entry's first verified binary hit takes the full path — decode,
// the engine's identity check and copy of the plan, verify, encode — and
// attaches the encoded answer to the entry, through the byte-level entry:
// every call the first hit of a 24×16 entry filled beforehand. 8: the
// decode 4, the memo's copy of the solution 2, the encoded answer and its
// box in the entry 2. The entry's every later hit is a byte hit (0, in
// TestAllocBudgets).
func TestAllocBudgetFirstHit(t *testing.T) {
	const n, m = 24, 16
	frames := make([][]byte, alloctest.Calls)
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
	alloctest.Hold(t, "first memo hit", 8, hit)
	if st := s.Stats().Shards[0]; st.MemoMisses != uint64(len(frames)) || st.MemoHits != uint64(len(frames)) || s.byteHits.Value() != 0 {
		t.Fatalf("the timed requests were not all first hits: %+v, %d byte hits", st, s.byteHits.Value())
	}
}

// A whole binary memo miss through the shard's handler: decode, compile,
// the λ-search, verify, encode — every call a fresh 24×16 instance, test
// request and recorder included. The search's share is what
// core.TestAllocApproximate holds (its state and the one schedule it
// returns); the rest is the instance and its compiled tables.
func TestAllocBudgetMemoMiss(t *testing.T) {
	const n, m = 24, 16
	frames := make([][]byte, alloctest.Calls)
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
	alloctest.Hold(t, "memo-miss ServeHTTP", 34, serve)
	if st := s.Stats().Shards[0]; st.MemoHits != 0 || st.MemoMisses != alloctest.Calls {
		t.Fatalf("the timed requests were not all memo misses: %+v", st)
	}
}

// A whole binary DAG memo miss through the shard's handler: a wire/v2 graph
// frame, solver "dag" — decode, five edge validations (handler, engine,
// NewGraph, verify.Precedence in the solver and again in the handler),
// compile, the precedence solve, both verifies, encode — every call a
// fresh 16×8 instance, the benchmark's serve-dag shapes in turn. The
// solve's own share is what precedence.TestAllocSolve holds (9).
func TestAllocBudgetDAGMiss(t *testing.T) {
	const n, m = 16, 8
	outTree, err := precedence.OutTreeEdges(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, alloctest.Calls)
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
	alloctest.Hold(t, "DAG memo-miss ServeHTTP", 45, serve)
	if st := s.Stats().Shards[0]; st.MemoHits != 0 || st.MemoMisses != alloctest.Calls {
		t.Fatalf("the timed requests were not all memo misses: %+v", st)
	}
}
