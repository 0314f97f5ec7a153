package router

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
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
		"msroute_binary_requests_total",
		"msroute_backend_routed_total",
		"msroute_backend_served_total",
		"msroute_backend_stolen_away_total",
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
		if n := sampleSum(text, `msroute_stage_latency_us_count{stage="`+stage+`"`); n <= 0 {
			t.Errorf("stage %q: %v samples", stage, n)
		}
	}
}

// sampleSum sums the values of the exposition's samples whose line starts
// with prefix: 0 when there is none.
func sampleSum(text, prefix string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			sum += v
		}
	}
	return sum
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

// One set of books: after mixed traffic — both codecs, a lineage, a steal
// and a shed request — every numeric /statsz leaf equals its /metricsz
// series, and the tier's locality numbers follow from the per-backend ones.
func TestRouterStatszIsMetricsz(t *testing.T) {
	g0 := newGate(server.New(server.Config{Workers: 1}).Handler())
	g1 := newGate(server.New(server.Config{Workers: 1}).Handler())
	rt, err := New(Config{
		Backends:   []Backend{{Name: "shard-0", Handler: g0}, {Name: "shard-1", Handler: g1}},
		Workers:    1,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	held0, held1, queued, shed := homedOn(t, rt, 0, 1), homedOn(t, rt, 1, 1), homedOn(t, rt, 0, 100), homedOn(t, rt, 0, 200)

	// Both slots are held at the gates, one request homed on shard-0 queues
	// behind them, and the next one is shed.
	results := make(chan *httptest.ResponseRecorder, 3)
	go func() { results <- postFrame(rt.Handler(), held0) }()
	await(t, g0.arrived, "shard-0's slot to be taken")
	go func() { results <- postFrame(rt.Handler(), held1) }()
	await(t, g1.arrived, "shard-1's slot to be taken")
	go func() { results <- postFrame(rt.Handler(), queued) }()
	for deadline := time.Now().Add(10 * time.Second); rt.Stats().Backends[0].QueueLen != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the third request never queued on shard-0")
		}
	}
	if rec := postFrame(rt.Handler(), shed); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("with shard-0's queue full: HTTP %d, want 429", rec.Code)
	}
	// shard-1 finishes its own request and steals the queued one; shard-0
	// is still held, so the steal is certain.
	close(g1.release)
	for i := 0; i < 2; i++ {
		if rec := <-results; rec.Code != http.StatusOK || rec.Header().Get("X-Msroute-Backend") != "shard-1" {
			t.Fatalf("HTTP %d from %q, want 200 from shard-1", rec.Code, rec.Header().Get("X-Msroute-Backend"))
		}
	}
	close(g0.release)
	if rec := <-results; rec.Code != http.StatusOK {
		t.Fatalf("the held request: HTTP %d", rec.Code)
	}
	in := instance.Mixed(5, 8, 6)
	if rec := postJSON(t, rt.Handler(), "/v1/schedule", wire.ScheduleRequest{Instance: mustRaw(t, in)}); rec.Code != http.StatusOK {
		t.Fatalf("JSON: HTTP %d", rec.Code)
	}
	if rec := postBinary(t, rt.Handler(), in, &wire.RequestOptions{Lineage: "books"}); rec.Code != http.StatusOK {
		t.Fatalf("lineage: HTTP %d", rec.Code)
	}

	scrape := func(path string) []byte {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.Bytes()
	}
	leaves := jsonLeaves(t, scrape("/statsz"))
	series := parseExposition(t, string(scrape("/metricsz")))
	var local, steals float64
	for _, b := range []string{"shard-0", "shard-1"} {
		stolen := series[`msroute_steals_total{backend="`+b+`"}`]
		local += series[`msroute_backend_served_total{backend="`+b+`"}`] - stolen
		steals += stolen
	}
	derived := map[string]float64{"local_served": local, "steals": steals, "locality_hit_rate": local / (local + steals)}
	for path, v := range leaves {
		want, ok := derived[path]
		if !ok {
			name := routerSeries(path)
			if want, ok = series[name]; !ok {
				t.Errorf("/statsz %s = %v has no /metricsz series (%q)", path, v, name)
				continue
			}
		}
		if want != v {
			t.Errorf("/statsz %s = %v, but /metricsz says %v", path, v, want)
		}
	}
	// A later request can find its home slot briefly held by the drainer
	// the queued one woke, and be stolen too, so steals is a floor.
	for path, want := range map[string]float64{
		"routed": 5, "rejected": 1, "lineage_pinned": 1, "binary_requests": 5,
	} {
		if leaves[path] != want {
			t.Errorf("/statsz %s = %v, want %v: the traffic did not reach every counter", path, leaves[path], want)
		}
	}
	if leaves["steals"] < 1 {
		t.Error("/statsz steals = 0: the queued request was not stolen")
	}
}

// routerSeries names the /metricsz series that must equal a /statsz leaf
// of a tier whose backends are named shard-0, shard-1, …; "" for none.
func routerSeries(path string) string {
	switch path {
	case "routed", "rejected", "lineage_pinned", "binary_requests":
		return "msroute_" + path + "_total"
	}
	parts := strings.Split(path, ".")
	if len(parts) != 3 || parts[0] != "backends" {
		return ""
	}
	label := `{backend="shard-` + parts[1] + `"}`
	switch parts[2] {
	case "routed", "served", "stolen_away", "errors":
		return "msroute_backend_" + parts[2] + "_total" + label
	case "stolen_served":
		return "msroute_steals_total" + label
	case "queue_len":
		return "msroute_queue_len" + label
	}
	return ""
}

// parseExposition reads a Prometheus text page into series → value, the
// series named as the page prints it: name{labels}.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparsable exposition line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// jsonLeaves flattens a JSON body into path → value for every numeric leaf,
// booleans as 0 or 1: "rejected", "backends.1.served".
func jsonLeaves(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	var root any
	if err := json.Unmarshal(body, &root); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				walk(prefix+k+".", x)
			}
		case []any:
			for i, x := range v {
				walk(prefix+strconv.Itoa(i)+".", x)
			}
		case float64:
			out[strings.TrimSuffix(prefix, ".")] = v
		case bool:
			out[strings.TrimSuffix(prefix, ".")] = map[bool]float64{true: 1}[v]
		}
	}
	walk("", root)
	return out
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
		Workers:     1,
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
	s0 := server.New(server.Config{})
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

	if got := rt.requests.Get(reqKey{"schedule", "binary", statusClientClosedRequest}).Value(); got != 1 {
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
