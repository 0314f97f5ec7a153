package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/router"
	"malsched/internal/wire"
)

// seamCase is one request of TestSeamMatchesHTTP, with the status both
// entries must answer it with.
type seamCase struct {
	name, path, contentType string
	body                    []byte
	want                    int
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// requestCounters is the malsched_requests_total family of a /metricsz
// page: the part of it that must not depend on which entry served.
func requestCounters(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	var lines []string
	for _, l := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(l, metricRequests+"{") {
			lines = append(lines, l)
		}
	}
	return strings.Join(lines, "\n")
}

// TestSeamMatchesHTTP pins the byte-level entry to the HTTP one: two equal
// servers take the same requests, good and hostile, one through ServeHTTP
// and one through Serve, and must answer with the same status, content
// type, body bytes and Retry-After — and end with the same /statsz and the
// same request counters.
func TestSeamMatchesHTTP(t *testing.T) {
	const maxBody = 4096
	in := instance.Mixed(1, 6, 4)
	raw := mustRaw(t, in)
	chain := precedence.ChainEdges(in.N())
	cyclic := [][]int{{1}, {0}, nil, nil, nil, nil}
	v1 := wire.AppendScheduleRequest(nil, in, nil, nil)
	cases := []seamCase{
		{"binary v1", wire.PathSchedule, wire.ContentType, v1, 200},
		{"binary v1 again (memo hit)", wire.PathSchedule, wire.ContentType + "; charset=binary", v1, 200},
		{"binary v2 graph", wire.PathSchedule, wire.ContentType,
			wire.AppendScheduleRequest(nil, in, chain, &wire.RequestOptions{Solver: "dag"}), 200},
		{"binary lineage", wire.PathSchedule, wire.ContentType,
			wire.AppendScheduleRequest(nil, instance.Mixed(2, 6, 4), nil, &wire.RequestOptions{Lineage: "chain-1"}), 200},
		{"json schedule", wire.PathSchedule, "application/json",
			mustJSON(t, wire.ScheduleRequest{Instance: mustRaw(t, instance.Mixed(3, 6, 4))}), 200},
		// Its own workload: a DAG solve reports its λ-segment cache hits as
		// synthesized, and those depend on which pooled scratch the solve
		// draws (precedence.Result.CacheHits). A second DAG solve over the
		// compiled tables of the binary v2 case would make the bytes depend
		// on the pool, which the race detector randomises.
		{"json schedule with a graph", wire.PathSchedule, "application/json",
			mustJSON(t, wire.ScheduleRequest{Instance: mustRaw(t, instance.Mixed(4, 6, 4)), Graph: chain, Options: &wire.RequestOptions{Solver: "dag-crossover"}}), 200},
		{"json batch with a poisoned item", wire.PathBatch, "application/json",
			mustJSON(t, wire.BatchRequest{Instances: []json.RawMessage{raw, json.RawMessage(`{"name":"x","m":0,"tasks":[]}`), raw}}), 200},
		{"binary body on the batch path", wire.PathBatch, wire.ContentType, v1, 400},
		{"truncated frame", wire.PathSchedule, wire.ContentType, v1[:len(v1)/2], 400},
		{"bad magic", wire.PathSchedule, wire.ContentType, []byte("not a frame at all"), 400},
		{"trailing byte", wire.PathSchedule, wire.ContentType, append(append([]byte(nil), v1...), 0), 400},
		{"malformed json", wire.PathSchedule, "application/json", []byte(`{"instance": 7`), 400},
		{"trailing json", wire.PathSchedule, "application/json",
			append(mustJSON(t, wire.ScheduleRequest{Instance: raw}), "{}"...), 400},
		{"empty batch", wire.PathBatch, "application/json", []byte(`{"instances":[]}`), 400},
		{"oversize binary", wire.PathSchedule, wire.ContentType, make([]byte, maxBody+1), 400},
		{"oversize json", wire.PathSchedule, "application/json", bytes.Repeat([]byte(" "), 2*maxBody), 400},
		{"body of exactly the cap", wire.PathSchedule, "application/json", bytes.Repeat([]byte(" "), maxBody), 400},
		{"bad graph binary", wire.PathSchedule, wire.ContentType,
			wire.AppendScheduleRequest(nil, in, cyclic, &wire.RequestOptions{Solver: "dag"}), 400},
		{"bad graph json", wire.PathSchedule, "application/json",
			mustJSON(t, wire.ScheduleRequest{Instance: raw, Graph: cyclic, Options: &wire.RequestOptions{Solver: "dag"}}), 400},
		{"graph with an edge-blind solver", wire.PathSchedule, wire.ContentType,
			wire.AppendScheduleRequest(nil, in, chain, &wire.RequestOptions{Solver: "mrt"}), 400},
		{"unknown solver binary", wire.PathSchedule, wire.ContentType,
			wire.AppendScheduleRequest(nil, in, nil, &wire.RequestOptions{Solver: "nope"}), 400},
		{"unknown solver json", wire.PathSchedule, "application/json",
			mustJSON(t, wire.ScheduleRequest{Instance: raw, Options: &wire.RequestOptions{Solver: "nope"}}), 400},
		{"bad instance json", wire.PathSchedule, "application/json",
			mustJSON(t, wire.ScheduleRequest{Instance: json.RawMessage(`{"name":"x","m":2,"tasks":[{"name":"a","times":[1,2]}]}`)}), 400},
	}

	cfg := Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: maxBody}
	overHTTP, overSeam := newBlockingServer(cfg), newBlockingServer(cfg)
	// The gate stays open until the queue-full step closes it.
	open := func(b *blockingServer) { b.Server.admitted = nil }
	open(overHTTP)
	open(overSeam)

	type answer struct {
		status                int
		contentType, retryHdr string
		body                  []byte
	}
	viaHTTP := func(c seamCase) answer {
		req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
		req.Header.Set("Content-Type", c.contentType)
		rec := httptest.NewRecorder()
		overHTTP.Handler().ServeHTTP(rec, req)
		return answer{rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"), rec.Body.Bytes()}
	}
	viaSeam := func(c seamCase) answer {
		seam := overSeam.Handler().(interface {
			Serve(ctx context.Context, path, contentType string, body []byte, reqID string, dst []byte) (int, string, []byte, string, error)
		})
		status, ct, out, retryAfter, err := seam.Serve(context.Background(), c.path, c.contentType, c.body, "", nil)
		if err != nil {
			t.Fatalf("%s: Serve: %v", c.name, err)
		}
		return answer{status, ct, retryAfter, out}
	}
	check := func(c seamCase) {
		t.Helper()
		a, b := viaHTTP(c), viaSeam(c)
		if a.status != c.want {
			t.Errorf("%s: HTTP %d over ServeHTTP, want %d: %q", c.name, a.status, c.want, a.body)
		}
		if shed := c.want == http.StatusTooManyRequests; (a.retryHdr == retryAfterShed) != shed {
			t.Errorf("%s: Retry-After %q over ServeHTTP", c.name, a.retryHdr)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the two entries disagree:\n ServeHTTP: %d %q retry=%q %q\n Serve:     %d %q retry=%q %q",
				c.name, a.status, a.contentType, a.retryHdr, a.body, b.status, b.contentType, b.retryHdr, b.body)
		}
	}
	for _, c := range cases {
		check(c)
	}

	// Queue full: park one admitted request on each server, then ask again.
	for _, b := range []*blockingServer{overHTTP, overSeam} {
		b.Server.admitted = func() {
			b.entered <- struct{}{}
			<-b.release
		}
	}
	parked := make(chan answer, 2)
	go func() { parked <- viaHTTP(cases[0]) }()
	go func() { parked <- viaSeam(cases[0]) }()
	awaitTick(t, overHTTP.entered, "the parked HTTP request")
	awaitTick(t, overSeam.entered, "the parked seam request")
	for _, c := range []seamCase{
		{"queue full binary", wire.PathSchedule, wire.ContentType, v1, 429},
		{"queue full json", wire.PathSchedule, "application/json", mustJSON(t, wire.ScheduleRequest{Instance: raw}), 429},
		{"queue full batch", wire.PathBatch, "application/json", mustJSON(t, wire.BatchRequest{Instances: []json.RawMessage{raw}}), 429},
	} {
		check(c)
	}
	close(overHTTP.release)
	close(overSeam.release)
	if a, b := <-parked, <-parked; a.status != 200 || !reflect.DeepEqual(a, b) {
		t.Errorf("the parked requests: %d %q vs %d %q", a.status, a.body, b.status, b.body)
	}
	open(overHTTP)
	open(overSeam)

	// Draining refuses typed, in the request's codec.
	overHTTP.StartDrain()
	overSeam.StartDrain()
	check(seamCase{"draining binary", wire.PathSchedule, wire.ContentType, v1, 503})
	check(seamCase{"draining json", wire.PathSchedule, "application/json", mustJSON(t, wire.ScheduleRequest{Instance: raw}), 503})

	if a, b := overHTTP.Stats(), overSeam.Stats(); !reflect.DeepEqual(a, b) {
		t.Errorf("/statsz diverged:\n ServeHTTP: %+v\n Serve:     %+v", a, b)
	}
	if a, b := requestCounters(t, overHTTP.Server), requestCounters(t, overSeam.Server); a != b || a == "" {
		t.Errorf("request counters diverged:\n ServeHTTP:\n%s\n Serve:\n%s", a, b)
	}

	// A path the seam does not serve is the mux's 404, not a panic.
	rec := httptest.NewRecorder()
	overHTTP.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/everything", nil))
	status, _, out, _, _ := overSeam.Serve(context.Background(), "/v2/everything", "", nil, "", nil)
	if status != rec.Code || string(out) != rec.Body.String() {
		t.Errorf("unknown path: Serve %d %q, ServeHTTP %d %q", status, out, rec.Code, rec.Body.String())
	}
}

// TestRetryAfterThroughRouter: a shard that sheds at its own admission
// queue answers 429 with Retry-After, and the routing tier must pass the
// header on — whichever transport it reaches the shard by, in both codecs.
// (The router used to forward status, content type and body only, so a
// client behind msroute saw a bare 429.)
func TestRetryAfterThroughRouter(t *testing.T) {
	in := instance.Mixed(1, 6, 4)
	raw := mustRaw(t, in)
	for _, transport := range []string{"direct", "handler adapter", "URL"} {
		b := newBlockingServer(Config{Workers: 1, QueueDepth: 1})
		backend := router.Backend{Name: "s0"}
		switch transport {
		case "direct":
			backend.Handler = b.Handler()
		case "handler adapter":
			backend.Handler = http.HandlerFunc(b.ServeHTTP)
		case "URL":
			ts := httptest.NewServer(b.Handler())
			defer ts.Close()
			backend.URL = ts.URL
		}
		rt, err := router.New(router.Config{Backends: []router.Backend{backend}})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()

		// One request holds the shard's only admission token.
		parked := make(chan int, 1)
		go func() {
			req := httptest.NewRequest(http.MethodPost, wire.PathSchedule, bytes.NewReader(wire.AppendScheduleRequest(nil, in, nil, nil)))
			req.Header.Set("Content-Type", wire.ContentType)
			rec := httptest.NewRecorder()
			b.ServeHTTP(rec, req)
			parked <- rec.Code
		}()
		awaitTick(t, b.entered, "the parked request")

		for _, codec := range []string{"binary", "json"} {
			body, ct := wire.AppendScheduleRequest(nil, in, nil, nil), wire.ContentType
			if codec == "json" {
				body, ct = mustJSON(t, wire.ScheduleRequest{Instance: raw}), "application/json"
			}
			req := httptest.NewRequest(http.MethodPost, wire.PathSchedule, bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, req)
			what := fmt.Sprintf("%s transport, %s", transport, codec)
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("%s: HTTP %d, want 429: %q", what, rec.Code, rec.Body.Bytes())
			}
			if got := rec.Header().Get("Retry-After"); got != retryAfterShed {
				t.Errorf("%s: Retry-After %q through the router, want %q", what, got, retryAfterShed)
			}
			code := ""
			if codec == "binary" {
				eb, err := wire.DecodeError(rec.Body.Bytes())
				if err != nil {
					t.Fatalf("%s: shed body is not a binary error: %v", what, err)
				}
				code = eb.Error.Code
			} else {
				code = errCode(t, rec.Body.Bytes())
			}
			if code != wire.CodeQueueFull {
				t.Errorf("%s: code %q, want %q", what, code, wire.CodeQueueFull)
			}
		}
		if st := rt.Stats(); st.Rejected != 0 || st.Routed != 2 {
			t.Errorf("%s transport: the router's own queue shed (%+v); the test means the shard's", transport, st)
		}
		close(b.release)
		if code := <-parked; code != http.StatusOK {
			t.Errorf("%s transport: the parked request finished with HTTP %d", transport, code)
		}
	}
}
