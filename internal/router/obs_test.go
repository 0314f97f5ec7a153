package router

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"malsched/internal/instance"
	"malsched/internal/obs"
	"malsched/internal/server"
	"malsched/internal/wire"
)

// A /metricsz scrape after routed traffic must expose the router's metric
// families in Prometheus text format with non-zero samples.
func TestRouterMetricsz(t *testing.T) {
	r, _ := newTier(t, 2, Config{})
	in := instance.Mixed(1, 10, 8)
	raw, err := server.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, r.Handler(), "/v1/schedule", wire.ScheduleRequest{Instance: raw})
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule via router: status %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	mrec := httptest.NewRecorder()
	r.Handler().ServeHTTP(mrec, req)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metricsz: status %d", mrec.Code)
	}
	text := mrec.Body.String()
	for _, family := range []string{
		"msroute_requests_total",
		"msroute_stage_latency_us",
		"msroute_routed_total",
		"msroute_rejected_total",
		"msroute_dispatch_total",
		"msroute_steals_total",
		"msroute_lineage_pinned_total",
		"msroute_queue_len",
		"msroute_backend_errors_total",
		"msroute_json_decode_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("missing family %s in exposition", family)
		}
	}
	if !strings.Contains(text, `msroute_requests_total{endpoint="schedule",codec="json",status="200"} 1`) {
		t.Errorf("request counter not incremented:\n%s", text)
	}
	if !strings.Contains(text, `msroute_routed_total 1`) {
		t.Errorf("routed counter not exposed:\n%s", text)
	}
	// A lone request finds its home shard free: forwarded inline, never queued.
	for _, want := range []string{`msroute_dispatch_total{mode="inline"} 1`, `msroute_dispatch_total{mode="queued"} 0`} {
		if !strings.Contains(text, want) {
			t.Errorf("dispatch counter: no %q in:\n%s", want, text)
		}
	}
	// The generated body is in the request scanner's subset.
	for _, want := range []string{`msroute_json_decode_total{path="scan"} 1`, `msroute_json_decode_total{path="fallback"} 0`} {
		if !strings.Contains(text, want) {
			t.Errorf("JSON decode counter: no %q in:\n%s", want, text)
		}
	}
	for _, stage := range []string{"queue", "forward"} {
		if !strings.Contains(text, `msroute_stage_latency_us_count{stage="`+stage+`"`) {
			t.Errorf("no stage-latency series for stage %q", stage)
		}
	}
}

// Drift guard: the router's statsz/v1 payload must carry exactly the
// documented keys.
func TestRouterStatszSchemaDrift(t *testing.T) {
	r, _ := newTier(t, 1, Config{})
	in := instance.Mixed(1, 8, 8)
	raw, err := server.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, r.Handler(), "/v1/schedule", wire.ScheduleRequest{Instance: raw}); rec.Code != http.StatusOK {
		t.Fatalf("schedule: status %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/statsz", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/statsz: status %d", rec.Code)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	var schema string
	if err := json.Unmarshal(payload["schema"], &schema); err != nil || schema != StatszSchema {
		t.Fatalf("schema = %q (%v), want %q", schema, err, StatszSchema)
	}
	assertKeys(t, "statsz", payload, []string{
		"schema", "routed", "rejected", "local_served", "steals",
		"locality_hit_rate", "lineage_pinned", "binary_requests", "backends",
	})
	var backends []map[string]json.RawMessage
	if err := json.Unmarshal(payload["backends"], &backends); err != nil {
		t.Fatal(err)
	}
	if len(backends) != 1 {
		t.Fatalf("want 1 backend, got %d", len(backends))
	}
	assertKeys(t, "backend", backends[0], []string{
		"name", "routed", "served", "stolen_away", "stolen_served", "queue_len", "errors",
	})
}

func assertKeys(t *testing.T, label string, m map[string]json.RawMessage, want []string) {
	t.Helper()
	wantSet := make(map[string]bool, len(want))
	for _, k := range want {
		wantSet[k] = true
		if _, ok := m[k]; !ok {
			t.Errorf("%s: documented key %q missing from payload", label, k)
		}
	}
	for k := range m {
		if !wantSet[k] {
			t.Errorf("%s: undocumented key %q in payload — update the schema docs and this guard together", label, k)
		}
	}
}

// End to end: one request ID minted at the router must appear on the
// client's response header, in the router's request log, and in the
// serving shard's request log — one identifier joining both tiers.
func TestRequestIDPropagation(t *testing.T) {
	var mu sync.Mutex
	var routerLog, shardLog bytes.Buffer

	shard := server.New(server.Config{
		Shards: 1, Workers: 1,
		Logger:      slog.New(slog.NewTextHandler(lockedWriter{&mu, &shardLog}, nil)),
		LogRequests: true,
	})
	r, err := New(Config{
		Backends:    []Backend{{Name: "s0", Handler: shard.Handler()}},
		Logger:      slog.New(slog.NewTextHandler(lockedWriter{&mu, &routerLog}, nil)),
		LogRequests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	in := instance.Mixed(9, 10, 8)
	raw, err := server.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, r.Handler(), "/v1/schedule", wire.ScheduleRequest{Instance: raw})
	if rec.Code != http.StatusOK {
		t.Fatalf("schedule via router: status %d", rec.Code)
	}
	id := rec.Header().Get(obs.RequestIDHeader)
	if id == "" {
		t.Fatal("router response carries no request ID")
	}

	mu.Lock()
	rlog, slog_ := routerLog.String(), shardLog.String()
	mu.Unlock()
	if !strings.Contains(rlog, "request_id="+id) {
		t.Errorf("router log missing request_id=%s:\n%s", id, rlog)
	}
	if !strings.Contains(slog_, "request_id="+id) {
		t.Errorf("shard log missing request_id=%s:\n%s", id, slog_)
	}

	// A client-supplied ID is honoured end to end, too.
	buf, err := json.Marshal(wire.ScheduleRequest{Instance: raw})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "client-7")
	rec2 := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec2, req)
	if got := rec2.Header().Get(obs.RequestIDHeader); got != "client-7" {
		t.Fatalf("router echoed %q, want client-7", got)
	}
	mu.Lock()
	slog2 := shardLog.String()
	mu.Unlock()
	if !strings.Contains(slog2, "request_id=client-7") {
		t.Errorf("shard log missing the client-supplied ID:\n%s", slog2)
	}
}

// Slow routed requests log at Warn with the queue/forward breakdown.
func TestRouterSlowLogging(t *testing.T) {
	var mu sync.Mutex
	var lines bytes.Buffer
	r, _ := newTier(t, 1, Config{
		Logger:        slog.New(slog.NewTextHandler(lockedWriter{&mu, &lines}, nil)),
		SlowThreshold: time.Nanosecond, // everything is slow
	})
	in := instance.Mixed(2, 8, 8)
	raw, err := server.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, r.Handler(), "/v1/schedule", wire.ScheduleRequest{Instance: raw}); rec.Code != http.StatusOK {
		t.Fatalf("schedule: status %d", rec.Code)
	}
	mu.Lock()
	text := lines.String()
	mu.Unlock()
	for _, want := range []string{"slow request", "slow=true", "inline=true", "queue_ns=0", "forward_ns=", "backend=shard-0"} {
		if !strings.Contains(text, want) {
			t.Errorf("log line missing %q:\n%s", want, text)
		}
	}
}

// A client that gives up while its request is queued still finishes on the
// router's books: one msroute_requests_total sample and one request-log line,
// both with status 499.
func TestClientGoneWhileQueuedIsCounted(t *testing.T) {
	var mu sync.Mutex
	var lines bytes.Buffer
	s0 := server.New(server.Config{Shards: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rt, err := New(Config{
		Backends: []Backend{{Name: "only", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			once.Do(func() { close(entered) })
			<-release
			s0.Handler().ServeHTTP(w, r)
		})}},
		Workers:     1,
		Logger:      slog.New(slog.NewTextHandler(lockedWriter{&mu, &lines}, nil)),
		LogRequests: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	in := instance.Mixed(3, 6, 4)
	first := make(chan int, 1)
	go func() { first <- postBinary(t, rt.Handler(), in, nil).Code }()
	<-entered // the only worker is now stuck inside the backend

	// The second request can only queue, and its client is already gone.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(wire.AppendScheduleRequest(nil, in, nil, nil)))
	req.Header.Set("Content-Type", wire.ContentType)
	rt.Handler().ServeHTTP(httptest.NewRecorder(), req.WithContext(ctx))

	if got := rt.requestCounter("schedule", "binary", statusClientClosedRequest).Value(); got != 1 {
		t.Fatalf("msroute_requests_total{status=499} = %d, want 1", got)
	}
	mu.Lock()
	text := lines.String()
	mu.Unlock()
	if !strings.Contains(text, "status=499") {
		t.Fatalf("no request-log line for the abandoned request:\n%s", text)
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("the request ahead of it: HTTP %d", code)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
