package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/obs"
	"malsched/internal/precedence"
	"malsched/internal/wire"
)

// A /metricsz scrape after traffic must expose the documented metric
// families in Prometheus text format, with the stage-latency histogram
// carrying non-zero samples for every stage.
func TestMetricszExposition(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(1, 10, 8)
	status, _ := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: mustRaw(t, in)})
	if status != http.StatusOK {
		t.Fatalf("schedule: status %d", status)
	}

	code, body := get(t, ts, "/metricsz")
	if code != http.StatusOK {
		t.Fatalf("/metricsz: status %d", code)
	}
	text := string(body)
	for _, family := range []string{
		"malsched_requests_total",
		"malsched_stage_latency_us",
		"malsched_queue_depth",
		"malsched_queue_in_flight",
		"malsched_draining",
		"malsched_admission_total",
		"malsched_verify_failures_total",
		"malsched_binary_requests_total",
		"malsched_graph_requests_total",
		"malsched_engine_events_total",
		"malsched_engine_entries",
		"malsched_json_decode_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("missing family %s in exposition", family)
		}
	}
	if !strings.Contains(text, `malsched_requests_total{endpoint="schedule",codec="json",status="200"} 1`) {
		t.Errorf("request counter not incremented:\n%s", text)
	}
	// The generated body is in the request scanner's subset.
	for _, want := range []string{`malsched_json_decode_total{path="scan"} 1`, `malsched_json_decode_total{path="fallback"} 0`} {
		if !strings.Contains(text, want) {
			t.Errorf("JSON decode counter: no %q in:\n%s", want, text)
		}
	}
	for _, stage := range []string{"queue", "compile", "solve", "verify", "encode"} {
		if n := sampleSum(text, `malsched_stage_latency_us_count{stage="`+stage+`"`); n <= 0 {
			t.Errorf("stage %q: %v samples", stage, n)
		}
	}
	if !strings.Contains(text, `event="scheduled"`) {
		t.Error("engine events missing scheduled series")
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

// The /metricsz endpoint must refuse non-read methods.
func TestMetricszMethods(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/metricsz", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The mux registers GET only, so POST is a 405 from the mux itself.
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metricsz: status %d, want 405", resp.StatusCode)
	}
}

// Drift guard: the statsz/v1 payload must carry exactly the documented
// keys — additions require a deliberate schema decision, removals are
// breakage.
func TestStatszSchemaDrift(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(1, 8, 8)
	if status, _ := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: mustRaw(t, in)}); status != http.StatusOK {
		t.Fatalf("schedule: status %d", status)
	}

	code, body := get(t, ts, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("/statsz: status %d", code)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	var schema string
	if err := json.Unmarshal(payload["schema"], &schema); err != nil || schema != StatszSchema {
		t.Fatalf("schema = %q (%v), want %q", schema, err, StatszSchema)
	}
	assertKeys(t, "statsz", payload, []string{
		"schema", "queue", "shards", "verify_failures", "binary_requests", "graph_requests",
	})
	var queue map[string]json.RawMessage
	if err := json.Unmarshal(payload["queue"], &queue); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "queue", queue, []string{"depth", "in_flight", "accepted", "rejected", "draining"})
	var shards []map[string]json.RawMessage
	if err := json.Unmarshal(payload["shards"], &shards); err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("want 1 shard, got %d", len(shards))
	}
	assertKeys(t, "shard", shards[0], []string{
		"shard", "scheduled", "errors", "panics", "timeouts",
		"memo_hits", "memo_misses", "memo_entries",
		"compile_hits", "compile_misses", "compiled_entries",
		"warm_solves", "synthesized", "warm_entries",
	})
}

// One set of books: after mixed traffic — both codecs, a graph, a lineage,
// a shed request and a withheld response — every numeric /statsz leaf
// equals its /metricsz series.
func TestStatszIsMetricsz(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	in := instance.Mixed(1, 8, 6)
	raw := mustRaw(t, in)

	for _, req := range []wire.ScheduleRequest{
		{Instance: raw},
		{Instance: raw, Graph: precedence.ChainEdges(in.N()), Options: &wire.RequestOptions{Solver: "dag"}},
		{Instance: mustRaw(t, instance.Mixed(2, 8, 6)), Options: &wire.RequestOptions{Lineage: "books"}},
	} {
		if status, body := post(t, ts, "/v1/schedule", req); status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, body)
		}
	}
	if status, body, _ := postBinary(t, ts, instance.Mixed(3, 8, 6), nil); status != http.StatusOK {
		t.Fatalf("binary: HTTP %d: %s", status, body)
	}
	s.corrupt = func(sol *engine.Solution) { sol.Makespan *= 2 }
	if status, _ := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw}); status != http.StatusInternalServerError {
		t.Fatalf("corrupted plan: HTTP %d, want 500", status)
	}
	s.corrupt = nil
	// Hold the only admission token, so the next request is shed.
	entered, release := make(chan struct{}), make(chan struct{})
	s.admitted = func() { close(entered); <-release }
	done := make(chan int)
	go func() { status, _ := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw}); done <- status }()
	awaitTick(t, entered, "the token holder")
	if status, _ := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw}); status != http.StatusTooManyRequests {
		t.Fatalf("with the token held: HTTP %d, want 429", status)
	}
	close(release)
	if status := <-done; status != http.StatusOK {
		t.Fatalf("token holder: HTTP %d", status)
	}

	_, statsz := get(t, ts, "/statsz")
	_, metricsz := get(t, ts, "/metricsz")
	series := parseExposition(t, string(metricsz))
	leaves := jsonLeaves(t, statsz)
	for path, v := range leaves {
		name := statszSeries(path)
		if name == "" {
			if path != "shards.0.shard" || v != 0 { // the one engine's index always reads 0
				t.Errorf("/statsz %s = %v has no /metricsz series", path, v)
			}
			continue
		}
		if got, ok := series[name]; !ok {
			t.Errorf("/statsz %s = %v: no series %s", path, v, name)
		} else if got != v {
			t.Errorf("/statsz %s = %v, but %s = %v", path, v, name, got)
		}
	}
	for path, want := range map[string]float64{
		"binary_requests": 1, "graph_requests": 1, "verify_failures": 1, "queue.rejected": 1, "queue.accepted": 6,
	} {
		if leaves[path] != want {
			t.Errorf("/statsz %s = %v, want %v: the traffic did not reach every counter", path, leaves[path], want)
		}
	}
}

// statszSeries names the /metricsz series that must equal a /statsz leaf,
// or "" for a leaf that is not a count. The process's one engine is the
// shards list's only entry, so only shards.0 maps onto the label-free
// engine series; any other index is a leaf with no series.
func statszSeries(path string) string {
	switch path {
	case "queue.depth":
		return "malsched_queue_depth"
	case "queue.in_flight":
		return "malsched_queue_in_flight"
	case "queue.accepted", "queue.rejected":
		return `malsched_admission_total{outcome="` + path[len("queue."):] + `"}`
	case "queue.draining":
		return "malsched_draining"
	case "verify_failures", "binary_requests", "graph_requests":
		return "malsched_" + path + "_total"
	}
	parts := strings.Split(path, ".")
	if len(parts) != 3 || parts[0] != "shards" || parts[1] != "0" || parts[2] == "shard" {
		return ""
	}
	if cache, ok := strings.CutSuffix(parts[2], "_entries"); ok {
		return `malsched_engine_entries{cache="` + cache + `"}`
	}
	return `malsched_engine_events_total{event="` + parts[2] + `"}`
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
// booleans as 0 or 1: "queue.accepted", "shards.0.memo_hits".
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
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	wantSet := make(map[string]bool, len(want))
	for _, k := range want {
		wantSet[k] = true
		if _, ok := m[k]; !ok {
			t.Errorf("%s: documented key %q missing from payload", label, k)
		}
	}
	for _, k := range got {
		if !wantSet[k] {
			t.Errorf("%s: undocumented key %q in payload — update the schema docs and this guard together", label, k)
		}
	}
}

// A traced request must return the trace field and a bit-identical result
// to the untraced request; the memo-hit repeat returns phases, no probes.
func TestScheduleTrace(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(7, 12, 8)
	raw := mustRaw(t, in)

	var plain, traced wire.ScheduleResponse
	if status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw}); status != http.StatusOK {
		t.Fatalf("untraced: status %d", status)
	} else if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced request returned a trace")
	}

	// Fresh server so the traced solve is cold — same workload, no memo.
	s2 := New(Config{Workers: 1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	status, body := post(t, ts2, "/v1/schedule", wire.ScheduleRequest{
		Instance: raw, Options: &wire.RequestOptions{Trace: true},
	})
	if status != http.StatusOK {
		t.Fatalf("traced: status %d", status)
	}
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("traced request returned no trace")
	}
	if len(traced.Trace.Probes) == 0 || traced.Trace.Probes[0].Lambda <= 0 {
		t.Fatalf("trace has no usable probes: %+v", traced.Trace)
	}
	if len(traced.Trace.Probes) != traced.Probes {
		t.Fatalf("trace probe count %d != response probes %d", len(traced.Trace.Probes), traced.Probes)
	}
	accepted := false
	for _, p := range traced.Trace.Probes {
		if p.Accepted {
			accepted = true
			if p.Reason != "" {
				t.Fatalf("accepted probe carries reject reason %q", p.Reason)
			}
		}
	}
	if !accepted {
		t.Fatal("trace has no accepted probe despite a served schedule")
	}

	// Bit-identity: everything but the trace matches the untraced response.
	got := traced
	got.Trace = nil
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("traced result differs from untraced:\n%+v\n%+v", plain, got)
	}

	// Memo hit: phases present, probes absent.
	var hit wire.ScheduleResponse
	if status, body := post(t, ts2, "/v1/schedule", wire.ScheduleRequest{
		Instance: raw, Options: &wire.RequestOptions{Trace: true},
	}); status != http.StatusOK {
		t.Fatalf("memo-hit: status %d", status)
	} else if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.FromMemo {
		t.Fatal("repeat request was not a memo hit")
	}
	if hit.Trace == nil {
		t.Fatal("memo hit returned no trace at all (want phases, no probes)")
	}
	if len(hit.Trace.Probes) != 0 {
		t.Fatalf("memo hit carries %d probes, want none", len(hit.Trace.Probes))
	}
}

// The compile stage belongs to memo misses: a miss resolves the compiled
// tables inside the engine and reports the time back, a memo hit probes no
// compiled cache and observes exactly 0 — in the trace and in the
// stage=compile histogram alike.
func TestCompileStageOnlyOnMemoMiss(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := wire.ScheduleRequest{Instance: mustRaw(t, instance.Mixed(11, 48, 32)), Options: &wire.RequestOptions{Trace: true}}
	schedule := func() wire.ScheduleResponse {
		t.Helper()
		var resp wire.ScheduleResponse
		if status, body := post(t, ts, "/v1/schedule", req); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		} else if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	compile := s.stages.Get(stageKey{solver: "mrt", codec: "json"}).compile

	miss := schedule()
	if miss.FromMemo || miss.Trace.CompileNS <= 0 {
		t.Fatalf("compile miss: from_memo=%v compile_ns=%d, want a timed compilation", miss.FromMemo, miss.Trace.CompileNS)
	}
	if compile.Count() != 1 || compile.SumUS() <= 0 || compile.SumUS() != miss.Trace.CompileNS/1e3 {
		t.Fatalf("stage=compile after the miss: count %d sum %dµs, want 1 and %dµs", compile.Count(), compile.SumUS(), miss.Trace.CompileNS/1e3)
	}
	sum := compile.SumUS()

	hit := schedule()
	if !hit.FromMemo || hit.Trace.CompileNS != 0 {
		t.Fatalf("memo hit: from_memo=%v compile_ns=%d, want a hit with no compile stage", hit.FromMemo, hit.Trace.CompileNS)
	}
	if compile.Count() != 2 || compile.SumUS() != sum {
		t.Fatalf("stage=compile after the hit: count %d sum %dµs, want 2 and an unchanged %dµs", compile.Count(), compile.SumUS(), sum)
	}
	if st := s.Stats().Shards[0]; st.CompileMisses != 1 || st.CompileHits != 0 {
		t.Fatalf("a memo hit probed the compiled cache: %+v", st)
	}
}

// Every scheduling response carries a request ID; a client-supplied
// X-Malsched-Request is echoed verbatim, an absent one is minted.
func TestRequestIDEcho(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(3, 8, 8)
	buf, err := json.Marshal(wire.ScheduleRequest{Instance: mustRaw(t, in)})
	if err != nil {
		t.Fatal(err)
	}

	// Minted when absent.
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(obs.RequestIDHeader)
	if minted == "" {
		t.Fatal("no request ID on response")
	}

	// Echoed when supplied.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "edge-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "edge-42" {
		t.Fatalf("request ID %q, want the supplied edge-42", got)
	}
}

// Request logs carry the request ID and flag slow requests with stage
// timings; sub-threshold requests stay at Info (or silent without
// LogRequests).
func TestRequestLogging(t *testing.T) {
	var mu sync.Mutex
	var lines bytes.Buffer
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &lines}, nil))

	s := New(Config{
		Workers:       1,
		Logger:        logger,
		LogRequests:   true,
		SlowThreshold: time.Nanosecond, // everything is slow
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(5, 8, 8)
	buf, err := json.Marshal(wire.ScheduleRequest{Instance: mustRaw(t, in), Options: &wire.RequestOptions{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "log-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	text := lines.String()
	mu.Unlock()
	for _, want := range []string{
		"slow request", "request_id=log-probe-1", "slow=true",
		"solve_ns=", "queue_ns=", "trace_probes=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("log line missing %q:\n%s", want, text)
		}
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
