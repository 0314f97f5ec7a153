package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"malsched/internal/instance"
	"malsched/internal/wire"
)

// blockingServer builds a server whose admitted requests park on a gate
// until released, so admission-control states (queue full, drain with work
// in flight) are reached deterministically against the real handler stack.
type blockingServer struct {
	*Server
	entered chan struct{} // one tick per admitted request reaching the gate
	release chan struct{} // close to let every parked request proceed
}

func newBlockingServer(cfg Config) *blockingServer {
	b := &blockingServer{
		Server:  New(cfg),
		entered: make(chan struct{}, cfg.QueueDepth+1),
		release: make(chan struct{}),
	}
	b.Server.admitted = func() {
		b.entered <- struct{}{}
		<-b.release
	}
	return b
}

func awaitTick(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// The bounded admission queue: once QueueDepth requests are in flight, the
// next one is shed with 429, a typed queue_full error and a Retry-After
// hint — and the queue recovers as soon as a slot frees.
func TestAdmissionQueueFull(t *testing.T) {
	b := newBlockingServer(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(b.Handler())
	defer ts.Close()
	raw := mustRaw(t, instance.Mixed(1, 5, 4))

	// Fill both slots with parked requests.
	results := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw})
			results <- status
		}()
		awaitTick(t, b.entered, "request to be admitted")
	}

	// Third request: queue full, typed rejection. Both endpoints shed.
	for _, path := range []string{"/v1/schedule", "/v1/batch"} {
		var body any = wire.ScheduleRequest{Instance: raw}
		if path == "/v1/batch" {
			body = wire.BatchRequest{Instances: []json.RawMessage{raw}}
		}
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s with a full queue: HTTP %d, want 429", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s: 429 without Retry-After", path)
		}
		var eb wire.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error.Code != wire.CodeQueueFull {
			t.Fatalf("%s: error %+v (decode err %v), want %s", path, eb.Error, err, wire.CodeQueueFull)
		}
		resp.Body.Close()
	}

	if st := b.Stats(); st.Queue.InFlight != 2 || st.Queue.Rejected != 2 {
		t.Fatalf("queue stats during overload: %+v", st.Queue)
	}

	// Free the slots: the parked requests complete successfully and the
	// queue accepts again.
	close(b.release)
	wg.Wait()
	close(results)
	for status := range results {
		if status != http.StatusOK {
			t.Fatalf("parked request finished with HTTP %d", status)
		}
	}
	b.Server.admitted = nil
	if status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw}); status != http.StatusOK {
		t.Fatalf("queue did not recover: HTTP %d: %s", status, body)
	}
	if st := b.Stats(); st.Queue.InFlight != 0 {
		t.Fatalf("tokens leaked: %+v", st.Queue)
	}
}

// Drain semantics: /healthz flips to 503 the moment draining starts, new
// scheduling work is refused typed, and requests already in flight run to
// completion.
func TestDrain(t *testing.T) {
	b := newBlockingServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(b.Handler())
	defer ts.Close()
	raw := mustRaw(t, instance.Mixed(2, 6, 4))

	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Fatalf("healthy server reports %d", status)
	}

	// Park one request in flight, then start draining.
	inFlight := make(chan int, 1)
	go func() {
		status, _ := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw})
		inFlight <- status
	}()
	awaitTick(t, b.entered, "in-flight request")
	b.StartDrain()

	if status, body := get(t, ts, "/healthz"); status != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: HTTP %d (%s), want 503", status, body)
	} else {
		var h HealthResponse
		if err := json.Unmarshal(body, &h); err != nil || h.Status != "draining" {
			t.Fatalf("draining /healthz body: %s", body)
		}
	}

	// New work is refused with the typed draining error on both endpoints.
	for _, path := range []string{"/v1/schedule", "/v1/batch"} {
		var reqBody any = wire.ScheduleRequest{Instance: raw}
		if path == "/v1/batch" {
			reqBody = wire.BatchRequest{Instances: []json.RawMessage{raw}}
		}
		status, body := post(t, ts, path, reqBody)
		if status != http.StatusServiceUnavailable || errCode(t, body) != wire.CodeDraining {
			t.Fatalf("%s while draining: HTTP %d %s", path, status, body)
		}
	}

	// /statsz stays readable during drain (operators watch it to decide
	// when the process can die).
	if status, _ := get(t, ts, "/statsz"); status != http.StatusOK {
		t.Fatalf("/statsz during drain: HTTP %d", status)
	}

	// The in-flight request still finishes successfully.
	close(b.release)
	select {
	case status := <-inFlight:
		if status != http.StatusOK {
			t.Fatalf("in-flight request during drain: HTTP %d", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never finished during drain")
	}
	if st := b.Stats(); !st.Queue.Draining || st.Queue.InFlight != 0 {
		t.Fatalf("post-drain stats: %+v", st.Queue)
	}
}

// StartDrain is idempotent and Draining observable.
func TestDrainIdempotent(t *testing.T) {
	s := New(Config{Workers: 1})
	if s.Draining() {
		t.Fatal("fresh server draining")
	}
	s.StartDrain()
	s.StartDrain()
	if !s.Draining() {
		t.Fatal("drain flag lost")
	}
}
