//go:build !race

// Allocation budgets of the routed hop. The race detector instruments
// allocations, so the file is excluded under -race.

package router

import (
	"encoding/json"
	"net/http"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/server"
	"malsched/internal/wire"
)

// A binary memo hit through the router and an in-process shard on the
// direct transport, the benchmark's serve-hot shape. The budget is the
// shard's own for the same hit through the same entry (0: "memo-hit Serve"
// in server.TestAllocBudgets, a byte hit) plus 5 for the hop: the minted
// request ID 1, the request-ID and Content-Length header values 3 (the
// length's string and both slices), the body cap's reader 1; route key,
// dispatch, both buffers and the backend, stolen and content-type header
// values are free. Reads 5; 11 while every hit decoded the frame at the
// shard and took the memo's copy of the plan; 17 while the shard copied
// every placement into the response and kept the response and the outcome
// on the heap, and the router built its three constant header values per
// request; 67 before the byte-level seam (a request, URL, header map and
// recorder per hop, a job and its channel, an unpooled body, a string per
// task name).
func TestAllocBudgetRoutedHit(t *testing.T) {
	const n, m, budget = 24, 16, 0 + 5
	frame := wire.AppendScheduleRequest(nil, instance.Mixed(9, n, m), nil, nil)
	shard := server.New(server.Config{Workers: 1})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := newReusedCall(t, wire.ContentType)
	serve := func() {
		if code := c.do(rt.Handler(), frame); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
	}
	serve() // fills the memo
	serve() // attaches the answer's bytes to the entry
	if got := allocsAfterWarmUp(serve); got > budget {
		t.Errorf("routed memo hit: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("routed memo hit: %.1f allocs per run (budget %d)", got, budget)
	}
	if st := shard.Stats().Shards[0]; st.MemoMisses != 1 {
		t.Fatalf("the timed requests were not memo hits: %+v", st)
	}
	if got := rt.queuedCnt.Value(); got != 0 {
		t.Fatalf("%d requests of a single caller were queued", got)
	}
}

// allocsAfterWarmUp is testing.AllocsPerRun(200, f) after 100 runs of f: a
// process's first allocations can be small enough for the runtime's tiny
// allocator, whose count lags, so a budget read on a fresh process can hide
// one (obs.TestAllocBudgetRequestID starts far along the request-ID
// sequence for the same reason).
func allocsAfterWarmUp(f func()) float64 {
	for range 100 {
		f()
	}
	return testing.AllocsPerRun(200, f)
}

// The same memo hit over the JSON codec, the benchmark's hot-JSON class: the
// body is scanned once at the router for its key and once at the shard for
// its instance, 4 allocations each (one string for the names, the task
// slice, one slab for the time tables, the instance), and the response is
// encoding/json's. Reads 17 (23 before the hop's constant headers, request
// ID, outcome and plan stopped allocating); 433 when encoding/json decoded the body at both
// tiers (a value per token, a string per name, a slice per time table).
func TestAllocBudgetRoutedJSONHit(t *testing.T) {
	const n, m, budget = 24, 16, 17
	raw, err := server.EncodeInstance(instance.Mixed(9, n, m))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.ScheduleRequest{Instance: raw})
	if err != nil {
		t.Fatal(err)
	}
	shard := server.New(server.Config{Workers: 1})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := newReusedCall(t, "application/json")
	serve := func() {
		if code := c.do(rt.Handler(), body); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
	}
	serve() // fills the memo
	serve() // warms the pools
	if got := testing.AllocsPerRun(200, serve); got > budget {
		t.Errorf("routed JSON memo hit: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("routed JSON memo hit: %.1f allocs per run (budget %d)", got, budget)
	}
	if st := shard.Stats().Shards[0]; st.MemoMisses != 1 {
		t.Fatalf("the timed requests were not memo hits: %+v", st)
	}
	if got := rt.jsonDecode[wire.PathFallback].Value(); got != 0 {
		t.Fatalf("%d bodies fell back to encoding/json", got)
	}
}

// The binary codec costs fewer allocations than JSON for the same memo hit
// through one router and one in-process shard, on edge-free requests and on
// the dag solver's chain and out-tree graphs alike. A Go client marshals
// every leaf's nil successor list as null, so the JSON DAG bodies here are
// what such a client sends; none may fall back to encoding/json, which cost
// 252–440 allocations per DAG hit on this grid where the scanner costs 32.
func TestAllocBinaryBelowJSON(t *testing.T) {
	shard := server.New(server.Config{Workers: 1})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bin, js := newReusedCall(t, wire.ContentType), newReusedCall(t, "application/json")
	for _, shape := range []string{"none", "chain", "out-tree"} {
		for _, size := range [][2]int{{10, 8}, {20, 12}} {
			n, m := size[0], size[1]
			in := instance.Mixed(int64(n*m), n, m)
			var graph [][]int
			var opts *wire.RequestOptions
			switch shape {
			case "chain":
				graph = precedence.ChainEdges(n)
			case "out-tree":
				if graph, err = precedence.OutTreeEdges(n, 2); err != nil {
					t.Fatal(err)
				}
			}
			if graph != nil {
				opts = &wire.RequestOptions{Solver: "dag"}
			}
			raw, err := server.EncodeInstance(in)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(wire.ScheduleRequest{Instance: raw, Graph: graph, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			frame := wire.AppendScheduleRequest(nil, in, graph, opts)
			allocs := func(c *reusedCall, req []byte) float64 {
				serve := func() {
					if code := c.do(rt.Handler(), req); code != http.StatusOK {
						t.Fatalf("%s %dx%d: HTTP %d", shape, n, m, code)
					}
				}
				serve() // fills the memo
				serve() // warms the pools
				misses := shard.Stats().Shards[0].MemoMisses
				got := testing.AllocsPerRun(100, serve)
				if shard.Stats().Shards[0].MemoMisses != misses {
					t.Fatalf("%s %dx%d: the timed requests were not memo hits", shape, n, m)
				}
				return got
			}
			b, j := allocs(bin, frame), allocs(js, body)
			if b >= j {
				t.Errorf("%s %dx%d: binary %.1f allocs per memo hit, not below JSON %.1f", shape, n, m, b, j)
			} else {
				t.Logf("%s %dx%d: binary %.1f, JSON %.1f allocs per memo hit", shape, n, m, b, j)
			}
		}
	}
	if got := rt.jsonDecode[wire.PathFallback].Value(); got != 0 {
		t.Fatalf("%d bodies fell back to encoding/json", got)
	}
}

// The routed mrt memo miss: every run a fresh 24×16 instance through the
// same hop — the hop's 8 on top of the shard's decode, compile, λ-search,
// verify and encode (what server.TestAllocBudgetMemoMiss bounds, there with
// a test request and recorder on top). Reads 25: 32 before the hop's
// constant headers, request ID, outcome, response and plan stopped
// allocating, 39 before the cold search's one λ-index, 49 before the search
// stopped copying out every accepted probe's schedule, 55 before Compile
// stopped building the breakpoint axis, 105 before the byte-level seam.
func TestAllocBudgetRoutedMiss(t *testing.T) {
	const n, m, runs, budget = 24, 16, 200, 25
	frames := make([][]byte, runs+2) // AllocsPerRun adds a warm-up call to ours
	for i := range frames {
		frames[i] = wire.AppendScheduleRequest(nil, instance.Mixed(int64(1000+i), n, m), nil, nil)
	}
	shard := server.New(server.Config{Workers: 1})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c := newReusedCall(t, wire.ContentType)
	next := 0
	serve := func() {
		code := c.do(rt.Handler(), frames[next])
		next++
		if code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
	}
	serve() // warm pools and the worker's Scratch
	if got := testing.AllocsPerRun(runs, serve); got > budget {
		t.Errorf("routed memo miss: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("routed memo miss: %.1f allocs per run (budget %d)", got, budget)
	}
	if st := shard.Stats().Shards[0]; st.MemoHits != 0 || st.MemoMisses != runs+2 {
		t.Fatalf("the timed requests were not all memo misses: %+v", st)
	}
}
