package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malsched/internal/instance"
	"malsched/internal/obs"
	"malsched/internal/server"
	"malsched/internal/wire"
)

// homedOn returns a stealable binary request whose home is shard i.
func homedOn(t *testing.T, rt *Router, i int, fromSeed int64) []byte {
	t.Helper()
	for seed := fromSeed; seed < fromSeed+500; seed++ {
		buf := wire.AppendScheduleRequest(nil, instance.Mixed(seed, 6, 4), nil, nil)
		key, _, err := wire.RouteKey(buf)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ring.route(key) == i {
			return buf
		}
	}
	t.Fatalf("no instance homes on shard %d", i)
	return nil
}

// lineageOn returns a lineage key whose hash homes on shard i.
func lineageOn(t *testing.T, rt *Router, i int) string {
	t.Helper()
	for k := 0; k < 1000; k++ {
		if cand := fmt.Sprintf("chain-%d", k); rt.ring.route(hashString(cand)) == i {
			return cand
		}
	}
	t.Fatalf("no lineage homes on shard %d", i)
	return ""
}

func postFrame(h http.Handler, frame []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// gate is a backend that reports each arrival and holds it until released.
type gate struct {
	inner   http.Handler
	arrived chan struct{}
	release chan struct{}
}

func newGate(inner http.Handler) *gate {
	// arrived is sized so that no arrival of a test blocks on reporting itself.
	return &gate{inner: inner, arrived: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.arrived <- struct{}{}
	<-g.release
	g.inner.ServeHTTP(w, r)
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestInlineAndQueuedAgree: how a request is dispatched must not show in
// its answer or on the books. The same seeded stream — both codecs, a
// lineage key on every fourth request — goes through a one-slot-per-shard
// tier once from a single caller (every request forwarded inline) and once
// from eight (the backends hold each forward for a moment, so callers find
// slots taken, queue, and are stolen): bodies must be byte-identical
// request by request, and both sets of books must add up.
func TestInlineAndQueuedAgree(t *testing.T) {
	const total = 96
	type request struct {
		body        []byte
		contentType string
	}
	stream := make([]request, total)
	pinnedWant := 0
	for i := range stream {
		in := instance.Mixed(int64(7000+i), 5+i%5, 4)
		var opts *wire.RequestOptions
		if i%4 == 0 {
			// One key per request: a chain's answers carry how warm its shard
			// was (probes, synthesized), which depends on arrival order.
			opts = &wire.RequestOptions{Lineage: fmt.Sprintf("solo-%d", i)}
			pinnedWant++
		}
		if i%2 == 0 {
			stream[i] = request{wire.AppendScheduleRequest(nil, in, nil, opts), wire.ContentType}
			continue
		}
		raw, err := server.EncodeInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(wire.ScheduleRequest{Instance: raw, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		stream[i] = request{body, "application/json"}
	}

	run := func(callers int) ([][]byte, Stats, uint64, uint64) {
		cfg := Config{Workers: 1}
		for i := 0; i < 3; i++ {
			shard := server.New(server.Config{Workers: 2}).Handler()
			cfg.Backends = append(cfg.Backends, Backend{
				Name: fmt.Sprintf("shard-%d", i),
				// Holding the slot while asleep is what makes concurrent
				// callers find it taken, at any GOMAXPROCS.
				Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					time.Sleep(200 * time.Microsecond)
					shard.ServeHTTP(w, r)
				}),
			})
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		bodies := make([][]byte, total)
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= total {
						return
					}
					req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(stream[i].body))
					req.Header.Set("Content-Type", stream[i].contentType)
					rec := httptest.NewRecorder()
					rt.Handler().ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("request %d with %d callers: HTTP %d: %q", i, callers, rec.Code, rec.Body.Bytes())
					}
					bodies[i] = rec.Body.Bytes()
				}
			}()
		}
		wg.Wait()
		return bodies, rt.Stats(), rt.inlineCnt.Value(), rt.queuedCnt.Value()
	}

	inlineBodies, inlineStats, inline1, queued1 := run(1)
	queuedBodies, queuedStats, inline8, queued8 := run(8)
	for i := range stream {
		if !bytes.Equal(inlineBodies[i], queuedBodies[i]) {
			t.Fatalf("request %d answered differently:\n 1 caller:  %q\n 8 callers: %q", i, inlineBodies[i], queuedBodies[i])
		}
	}
	if inline1 != total || queued1 != 0 {
		t.Errorf("single caller: %d inline, %d queued, want all %d inline", inline1, queued1, total)
	}
	if inline8+queued8 != total || queued8 < total/4 {
		t.Errorf("eight callers: %d inline, %d queued, want a good share of %d queued", inline8, queued8, total)
	}
	for name, st := range map[string]Stats{"1 caller": inlineStats, "8 callers": queuedStats} {
		if st.Routed != total || st.Rejected != 0 || st.LocalServed+st.Steals != st.Routed {
			t.Errorf("%s: routed %d, rejected %d, local %d + steals %d", name, st.Routed, st.Rejected, st.LocalServed, st.Steals)
		}
		if st.LineagePinned != uint64(pinnedWant) {
			t.Errorf("%s: lineage_pinned %d, want %d", name, st.LineagePinned, pinnedWant)
		}
	}
	if inlineStats.Steals != 0 {
		t.Errorf("a single caller's requests were stolen: %+v", inlineStats)
	}
}

// TestPinnedNeverOvertakes: a lineage request that finds its pinned queue
// non-empty queues behind it — even with a slot free, which is the state
// between a slot's release and a drainer's pickup. The test builds that
// state by hand: a job in the pinned queue and no drainer roused for it.
func TestPinnedNeverOvertakes(t *testing.T) {
	var mu sync.Mutex
	var order []string
	shard := server.New(server.Config{Workers: 1}).Handler()
	rt, err := New(Config{
		Backends: []Backend{{Name: "only", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			order = append(order, r.Header.Get(obs.RequestIDHeader))
			mu.Unlock()
			shard.ServeHTTP(w, r)
		})}},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	b := rt.backends[0]
	lineage := lineageOn(t, rt, 0)
	frame := func(seed int64) []byte {
		return wire.AppendScheduleRequest(nil, instance.Mixed(seed, 6, 4), nil, &wire.RequestOptions{Lineage: lineage})
	}

	ahead := &job{
		call: call{ctx: t.Context(), path: "/v1/schedule", contentType: wire.ContentType, body: frame(1), reqID: "ahead", start: time.Now()},
		done: make(chan jobResult, 1),
	}
	b.pinned <- ahead
	if len(b.slots) != 0 {
		t.Fatal("a slot is taken before any request")
	}
	if b.tryInline(true) {
		t.Fatal("a lineage request overtook its pinned queue")
	}
	if b.tryInline(false) {
		t.Fatal("a stealable request overtook the queues")
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(frame(2)))
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set(obs.RequestIDHeader, "behind")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req) // its enqueue rouses the drainers for both
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %q", rec.Code, rec.Body.Bytes())
	}
	if res := <-ahead.done; res.status != http.StatusOK || res.err != nil {
		t.Fatalf("the job ahead: %+v", res)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "ahead" {
		t.Fatalf("backend saw %v, want ahead first", order)
	}
	if inline, queued := rt.inlineCnt.Value(), rt.queuedCnt.Value(); inline != 0 || queued != 1 {
		t.Fatalf("%d inline, %d queued, want the one request queued", inline, queued)
	}

	// Only the pinned queue holds a lineage request back: with a stealable
	// job waiting and the pinned queue empty, it may take the free slot.
	b.local <- &job{call: call{ctx: t.Context()}, done: make(chan jobResult, 1)}
	if !b.tryInline(true) {
		t.Fatal("a stealable backlog held a lineage request back")
	}
	<-b.slots
	<-b.local
}

// TestStealWakesWithoutPolling: nothing polls for stealable work any more,
// so the two moments a steal can start must each rouse a thief. First, at
// enqueue: shard-0 is saturated, shard-1 has a slot to spare, and a request
// homed on shard-0 is served by shard-1 while shard-0 is still stuck.
// Second, at release: shard-1's only slot is busy when the request is
// queued, so nobody is roused then, and the steal starts when that slot is
// handed back.
func TestStealWakesWithoutPolling(t *testing.T) {
	s0 := server.New(server.Config{Workers: 1})
	s1 := server.New(server.Config{Workers: 1})
	g0, g1 := newGate(s0.Handler()), newGate(s1.Handler())
	rt, err := New(Config{
		Backends: []Backend{{Name: "shard-0", Handler: g0}, {Name: "shard-1", Handler: g1}},
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	on0, on0b, on0c, on1 := homedOn(t, rt, 0, 1), homedOn(t, rt, 0, 100), homedOn(t, rt, 0, 200), homedOn(t, rt, 1, 1)

	// Saturate shard-0: one request inline, stuck in the gate.
	stuck := make(chan *httptest.ResponseRecorder, 1)
	go func() { stuck <- postFrame(rt.Handler(), on0) }()
	await(t, g0.arrived, "shard-0's slot to be taken")

	// Enqueue wake: the next request homed there reaches shard-1's gate.
	stolen := make(chan *httptest.ResponseRecorder, 2)
	go func() { stolen <- postFrame(rt.Handler(), on0b) }()
	await(t, g1.arrived, "shard-1 to steal at enqueue")
	if got := rt.Stats().Steals; got != 1 {
		t.Fatalf("steals = %d with the stolen request at shard-1's gate", got)
	}

	// Release wake: shard-1's slot is that steal's, so a third request homed
	// on shard-0 only queues. Then the steal completes and shard-1's drainer
	// goes on to the next job; to exercise the inline release instead, a
	// request of shard-1's own takes the slot first.
	g1.release <- struct{}{} // the stolen request proceeds and completes
	if rec := <-stolen; rec.Code != http.StatusOK || rec.Header().Get("X-Msroute-Backend") != "shard-1" || rec.Header().Get("X-Msroute-Stolen") != "true" {
		t.Fatalf("stolen request: HTTP %d by %q stolen=%q", rec.Code, rec.Header().Get("X-Msroute-Backend"), rec.Header().Get("X-Msroute-Stolen"))
	}
	own := make(chan *httptest.ResponseRecorder, 1)
	go func() { own <- postFrame(rt.Handler(), on1) }()
	await(t, g1.arrived, "shard-1's own request to take its slot inline")
	go func() { stolen <- postFrame(rt.Handler(), on0c) }()
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Backends[0].QueueLen != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the third request never queued on shard-0")
		}
		time.Sleep(time.Millisecond)
	}
	g1.release <- struct{}{} // shard-1's own request completes, inline
	if rec := <-own; rec.Code != http.StatusOK || rec.Header().Get("X-Msroute-Stolen") != "false" {
		t.Fatalf("shard-1's own request: HTTP %d stolen=%q", rec.Code, rec.Header().Get("X-Msroute-Stolen"))
	}
	await(t, g1.arrived, "shard-1 to steal at release")
	g1.release <- struct{}{}
	if rec := <-stolen; rec.Code != http.StatusOK || rec.Header().Get("X-Msroute-Backend") != "shard-1" {
		t.Fatalf("second stolen request: HTTP %d by %q", rec.Code, rec.Header().Get("X-Msroute-Backend"))
	}
	if got := rt.Stats().Steals; got != 2 {
		t.Fatalf("steals = %d, want 2", got)
	}

	close(g0.release)
	if rec := <-stuck; rec.Code != http.StatusOK || rec.Header().Get("X-Msroute-Backend") != "shard-0" {
		t.Fatalf("the stuck request: HTTP %d by %q", rec.Code, rec.Header().Get("X-Msroute-Backend"))
	}

	// The poll this replaces must not come back.
	src, err := os.ReadFile("router.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"time.NewTimer", "stealRetry"} {
		if strings.Contains(string(src), gone) {
			t.Errorf("router.go references %s again", gone)
		}
	}
}
