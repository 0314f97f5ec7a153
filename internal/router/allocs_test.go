//go:build !race

// Allocation budgets of the routed hop. The race detector instruments
// allocations, so the file is excluded under -race.

package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/server"
	"malsched/internal/wire"
)

// reusedCall is a caller that pays for its request and recorder once, so
// AllocsPerRun counts the router and the shard and nothing of the client.
type reusedCall struct {
	req  *http.Request
	body bytes.Reader
	rec  reusedRecorder
}

type reusedRecorder struct {
	header http.Header
	status int
	n      int
}

func (r *reusedRecorder) Header() http.Header         { return r.header }
func (r *reusedRecorder) WriteHeader(s int)           { r.status = s }
func (r *reusedRecorder) Write(p []byte) (int, error) { r.n += len(p); return len(p), nil }

func newReusedCall(t *testing.T, contentType string) *reusedCall {
	t.Helper()
	c := &reusedCall{rec: reusedRecorder{header: make(http.Header)}}
	req, err := http.NewRequest(http.MethodPost, "/v1/schedule", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Body = io.NopCloser(&c.body)
	c.req = req
	return c
}

func (c *reusedCall) do(h http.Handler, frame []byte) int {
	c.body.Reset(frame)
	c.req.ContentLength = int64(len(frame))
	clear(c.rec.header)
	c.rec.status, c.rec.n = http.StatusOK, 0
	h.ServeHTTP(&c.rec, c.req)
	return c.rec.status
}

// A binary memo hit through the router and an in-process shard on the
// direct transport, the benchmark's serve-hot shape. The budget is the
// shard's own for the same hit through the same entry (12: "memo-hit Serve"
// in server.TestAllocBudgets, which reads 9) plus 10 for the hop, which
// reads 8: the minted request ID 2, five response header values 5, the body
// cap's reader 1; route key, dispatch and both buffers are free. Reads 17;
// the parent of the change that introduced the byte-level seam read 67 on
// this measurement (a request, URL, header map and recorder per hop, a job
// and its channel, an unpooled body, a string per task name).
func TestAllocBudgetRoutedHit(t *testing.T) {
	const n, m, budget = 24, 16, 12 + 10
	frame := wire.AppendScheduleRequest(nil, instance.Mixed(9, n, m), nil, nil)
	shard := server.New(server.Config{Shards: 1, Workers: 1})
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
	serve() // warms the pools
	if got := testing.AllocsPerRun(200, serve); got > budget {
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

// The same memo hit over the JSON codec, the benchmark's hot-JSON class: the
// body is scanned once at the router for its key and once at the shard for
// its instance, 4 allocations each (one string for the names, the task
// slice, one slab for the time tables, the instance), and the response is
// encoding/json's. Reads 23; 433 when encoding/json decoded the body at both
// tiers (a value per token, a string per name, a slice per time table).
func TestAllocBudgetRoutedJSONHit(t *testing.T) {
	const n, m, budget = 24, 16, 30
	raw, err := server.EncodeInstance(instance.Mixed(9, n, m))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wire.ScheduleRequest{Instance: raw})
	if err != nil {
		t.Fatal(err)
	}
	shard := server.New(server.Config{Shards: 1, Workers: 1})
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
	shard := server.New(server.Config{Shards: 1, Workers: 1})
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
// a test request and recorder on top). Reads 39: 49 before the search
// stopped copying out every accepted probe's schedule, 55 before Compile
// stopped building the breakpoint axis, 105 before the byte-level seam.
func TestAllocBudgetRoutedMiss(t *testing.T) {
	const n, m, runs, budget = 24, 16, 200, 44
	frames := make([][]byte, runs+2) // AllocsPerRun adds a warm-up call to ours
	for i := range frames {
		frames[i] = wire.AppendScheduleRequest(nil, instance.Mixed(int64(1000+i), n, m), nil, nil)
	}
	shard := server.New(server.Config{Shards: 1, Workers: 1})
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
