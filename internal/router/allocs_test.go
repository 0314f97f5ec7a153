//go:build !race

// Allocation budgets of the routed hop. The race detector instruments
// allocations, so the file is excluded under -race.

package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
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

// allocsAfterWarmUp is allocsPerRun(200, f) after 100 runs of f: a
// process's first allocations can be small enough for the runtime's tiny
// allocator, whose count lags, so a budget read on a fresh process can hide
// one (obs.TestAllocBudgetRequestID starts far along the request-ID
// sequence for the same reason).
func allocsAfterWarmUp(f func()) float64 {
	for range warmUpRuns {
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

const warmUpRuns = 100

// The same memo hit over the JSON codec, the benchmark's hot-JSON class:
// the body is walked once at the router for its key and once at the shard,
// whose byte hit answers from the walk, so the hit costs what the binary one
// does — the hop's 5 (TestAllocBudgetRoutedHit) and nothing of either
// tier's JSON. Reads 5; 17 while each tier scanned the body twice and built
// the instance (4 allocations each) and the shard answered through
// encoding/json; 23 before the hop's constant headers, request ID, outcome
// and plan stopped allocating; 433 when encoding/json decoded the body at
// both tiers (a value per token, a string per name, a slice per time table).
func TestAllocBudgetRoutedJSONHit(t *testing.T) {
	const n, m, budget = 24, 16, 5
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
	if got := allocsAfterWarmUp(serve); got > budget {
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

// The router keys a JSON schedule body by its walk alone: no instance, no
// decode, nothing allocated once the walk's pool is warm — as wire.RouteKey
// keys a binary frame. Reads 0; 4 while the router built the instance to
// fingerprint it.
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
	if got := allocsAfterWarmUp(key); got > 0 {
		t.Errorf("JSON route key: %.1f allocs per run, budget 0", got)
	}
	if got := rt.jsonDecode[wire.PathScan].Value(); got == 0 {
		t.Fatal("the body was not walked")
	}
}

// The binary codec costs no more allocations than JSON for the same memo
// hit through one router and one in-process shard, and each codec's cell
// holds its reading. Edge-free repeats are byte hits on both codecs, 5 each:
// the hop's. The dag solver's chain and out-tree graphs take the full path
// on both, where the binary frame still costs less than the JSON body: 14
// against 16. A Go client marshals every leaf's nil successor list as null,
// so the JSON DAG bodies here are what such a client sends; none may fall
// back to encoding/json, which cost 252–440 allocations per DAG hit on this
// grid where the scanner costs 16. The JSON cells read 17 edge-free and 26
// with a graph while the router built the instance to key it, and the
// edge-free ones while the shard answered every hit through encoding/json.
func TestAllocBinaryBelowJSON(t *testing.T) {
	shard := server.New(server.Config{Workers: 1})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bin, js := newReusedCall(t, wire.ContentType), newReusedCall(t, "application/json")
	budgets := map[string]struct{ binary, json float64 }{"none": {5, 5}, "chain": {14, 16}, "out-tree": {14, 16}}
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
				serve() // attaches the answer's bytes to the entry
				misses := shard.Stats().Shards[0].MemoMisses
				got := allocsAfterWarmUp(serve)
				if shard.Stats().Shards[0].MemoMisses != misses {
					t.Fatalf("%s %dx%d: the timed requests were not memo hits", shape, n, m)
				}
				return got
			}
			b, j := allocs(bin, frame), allocs(js, body)
			want := budgets[shape]
			switch {
			case b > j:
				t.Errorf("%s %dx%d: binary %.1f allocs per memo hit, above JSON %.1f", shape, n, m, b, j)
			case b > want.binary || j > want.json:
				t.Errorf("%s %dx%d: binary %.1f, JSON %.1f allocs per memo hit, budgets %.0f, %.0f", shape, n, m, b, j, want.binary, want.json)
			case shape != "none" && b == j:
				t.Errorf("%s %dx%d: binary %.1f allocs per memo hit, not below JSON %.1f", shape, n, m, b, j)
			default:
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
	frames := make([][]byte, runs+2) // allocsPerRun adds a warm-up call to ours
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
	if got := allocsPerRun(runs, serve); got > budget {
		t.Errorf("routed memo miss: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("routed memo miss: %.1f allocs per run (budget %d)", got, budget)
	}
	if st := shard.Stats().Shards[0]; st.MemoHits != 0 || st.MemoMisses != runs+2 {
		t.Fatalf("the timed requests were not all memo misses: %+v", st)
	}
}

// A routed lineage miss, the serve-replan shape: 50 chains of shrinking
// 24×16 residuals under their lineage keys, every run a memo miss that
// solves warm on its chain's pinned state. The router hashes the lineage
// key as a window of the walked frame; the shard copies it out once, for
// its warm-state lookup. Reads 19; 20 while the router copied the key out
// of the frame to hash it.
func TestAllocBudgetRoutedLineageMiss(t *testing.T) {
	const chains, runs, budget = 50, 200, 19
	frames := make([][]byte, warmUpRuns+runs+1) // allocsPerRun adds a warm-up call to ours
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
	if got := allocsAfterWarmUp(serve); got > budget {
		t.Errorf("routed lineage miss: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("routed lineage miss: %.1f allocs per run (budget %d)", got, budget)
	}
	if st := shard.Stats().Shards[0]; st.MemoHits != 0 || st.WarmSolves != uint64(len(frames)) {
		t.Fatalf("the timed requests were not all warm memo misses: %+v", st)
	}
}
