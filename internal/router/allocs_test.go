//go:build !race

// Allocation budgets of the routed hop. The race detector instruments
// allocations, so the file is excluded under -race.

package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"malsched/internal/alloctest"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/server"
	"malsched/internal/wire"
)

// A binary memo hit through the router and an in-process shard on the
// direct transport, the benchmark's serve-hot shape. The budget is the
// shard's own for the same hit through the same entry (0: "memo-hit Serve"
// in server.TestAllocBudgets, a byte hit) plus 0 for the hop: the minted
// request ID and its header value come from a block of 64 (2 allocations
// per block), the Content-Length value from wire's table of lengths, and
// the body cap is counted by wire.ReadBody itself; route key, dispatch,
// both buffers and the backend, stolen and content-type header values are
// free.
func TestAllocBudgetRoutedHit(t *testing.T) {
	const n, m = 24, 16
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
	alloctest.Hold(t, "routed memo hit", 0, serve)
	if st := shard.Stats().Shards[0]; st.MemoMisses != 1 {
		t.Fatalf("the timed requests were not memo hits: %+v", st)
	}
	if got := rt.queuedCnt.Value(); got != 0 {
		t.Fatalf("%d requests of a single caller were queued", got)
	}
}

// The same memo hit over the JSON codec, the benchmark's hot-JSON class:
// the body is walked once at the router for its key and once at the shard,
// whose byte hit answers from the walk, so the hit costs what the binary one
// does — the hop's 0 (TestAllocBudgetRoutedHit) and nothing of either
// tier's JSON.
func TestAllocBudgetRoutedJSONHit(t *testing.T) {
	const n, m = 24, 16
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
	serve() // attaches the answer's bytes to the entry
	alloctest.Hold(t, "routed JSON memo hit", 0, serve)
	if st := shard.Stats().Shards[0]; st.MemoMisses != 1 {
		t.Fatalf("the timed requests were not memo hits: %+v", st)
	}
	if got := rt.jsonDecode[wire.PathFallback].Value(); got != 0 {
		t.Fatalf("%d bodies fell back to encoding/json", got)
	}
}

// The router keys a JSON schedule body by its walk alone: no instance, no
// decode, nothing allocated once the walk's pool is warm — as wire.RouteKey
// keys a binary frame.
func TestAllocBudgetJSONRouteKey(t *testing.T) {
	raw, err := server.EncodeInstance(instance.Mixed(9, 24, 16))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.ScheduleRequest{Instance: raw})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Backends: []Backend{{Name: "s0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	key := func() {
		if _, pinned := rt.routeKey(wire.PathSchedule, false, body); pinned {
			t.Fatal("pinned without a lineage")
		}
	}
	alloctest.Hold(t, "JSON route key", 0, key)
	if got := rt.jsonDecode[wire.PathScan].Value(); got == 0 {
		t.Fatal("the body was not walked")
	}
}

// The binary codec costs no more allocations than JSON for the same memo
// hit through one router and one in-process shard, and each codec's cell
// holds its reading. Edge-free repeats are byte hits on both codecs, 0 each:
// the hop's. The dag solver's chain and out-tree graphs take the full path
// on both, where the binary frame still costs less than the JSON body: 9
// against 11. A Go client marshals every leaf's nil successor list as null,
// so the JSON DAG bodies here are what such a client sends; none may fall
// back to encoding/json, which cost 252–440 allocations per DAG hit on this
// grid where the scanner costs 11.
func TestAllocBinaryBelowJSON(t *testing.T) {
	shard := server.New(server.Config{Workers: 1})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bin, js := newReusedCall(t, wire.ContentType), newReusedCall(t, "application/json")
	budgets := map[string]struct{ binary, json uint64 }{"none": {0, 0}, "chain": {9, 11}, "out-tree": {9, 11}}
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
			hold := func(c *reusedCall, codec string, req []byte, budget uint64) {
				serve := func() {
					if code := c.do(rt.Handler(), req); code != http.StatusOK {
						t.Fatalf("%s %dx%d: HTTP %d", shape, n, m, code)
					}
				}
				serve() // fills the memo
				serve() // attaches the answer's bytes to the entry
				misses := shard.Stats().Shards[0].MemoMisses
				alloctest.Hold(t, fmt.Sprintf("%s %s %dx%d memo hit", codec, shape, n, m), budget, serve)
				if shard.Stats().Shards[0].MemoMisses != misses {
					t.Fatalf("%s %dx%d: the timed requests were not memo hits", shape, n, m)
				}
			}
			hold(bin, "binary", frame, budgets[shape].binary)
			hold(js, "JSON", body, budgets[shape].json)
		}
	}
	if got := rt.jsonDecode[wire.PathFallback].Value(); got != 0 {
		t.Fatalf("%d bodies fell back to encoding/json", got)
	}
}

// The routed mrt memo miss: every run a fresh 24×16 instance through the
// same hop — the shard's decode, compile, λ-search, verify and encode, to
// which the hop adds nothing (what server.TestAllocBudgetMemoMiss holds,
// there with a test request and recorder on top). Its 700 calls stay below
// the memo's capacity, so every put allocates its node.
func TestAllocBudgetRoutedMiss(t *testing.T) {
	const n, m = 24, 16
	frames := make([][]byte, alloctest.Calls)
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
	alloctest.Hold(t, "routed memo miss", 13, serve)
	if st := shard.Stats().Shards[0]; st.MemoHits != 0 || st.MemoMisses != alloctest.Calls {
		t.Fatalf("the timed requests were not all memo misses: %+v", st)
	}
}

// A routed lineage miss, the serve-replan shape: 50 chains of shrinking
// 24×16 residuals under their lineage keys, every run a memo miss that
// solves warm on its chain's pinned state. The router hashes the lineage
// key as a window of the walked frame; the shard copies it out once, for
// its warm-state lookup.
func TestAllocBudgetRoutedLineageMiss(t *testing.T) {
	const chains = 50
	frames := make([][]byte, alloctest.Calls)
	for i := range frames {
		in := instance.Mixed(int64(5000+i%chains), 24, 16)
		in.Tasks = in.Tasks[:24-i/chains]
		frames[i] = wire.AppendScheduleRequest(nil, in, nil, &wire.RequestOptions{Lineage: fmt.Sprintf("chain-%d", i%chains)})
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
	alloctest.Hold(t, "routed lineage miss", 14, serve)
	if st := shard.Stats().Shards[0]; st.MemoHits != 0 || st.WarmSolves != uint64(len(frames)) {
		t.Fatalf("the timed requests were not all warm memo misses: %+v", st)
	}
}
