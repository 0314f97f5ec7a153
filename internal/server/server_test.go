package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/wire"
)

// post sends a JSON body to the test server and returns status + decoded
// body bytes.
func post(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

func mustRaw(tb testing.TB, in *instance.Instance) json.RawMessage {
	tb.Helper()
	raw, err := EncodeInstance(in)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("response is not a typed error: %v (%s)", err, body)
	}
	return eb.Error.Code
}

// The service must be a transparent wrapper: a /v1/schedule response is
// bit-identical to the in-process pipeline on the same decoded instance.
func TestScheduleMatchesInProcess(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for seed := int64(1); seed <= 5; seed++ {
		in := instance.Mixed(seed, 9+int(seed), 8)
		raw := mustRaw(t, in)
		status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw})
		if status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, body)
		}
		var resp wire.ScheduleResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		canonical, err := DecodeInstance(raw)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.Solve(canonical, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(resp.Makespan) != math.Float64bits(want.Makespan) ||
			math.Float64bits(resp.LowerBound) != math.Float64bits(want.LowerBound) ||
			resp.Branch != want.Branch || resp.Solver != want.Solver {
			t.Fatalf("seed %d: response differs from in-process solve:\n got %v %v %s/%s\nwant %v %v %s/%s",
				seed, resp.Makespan, resp.LowerBound, resp.Branch, resp.Solver,
				want.Makespan, want.LowerBound, want.Branch, want.Solver)
		}
		if !reflect.DeepEqual(resp.Plan, *want.Plan) {
			t.Fatalf("seed %d: plan differs from in-process solve", seed)
		}
	}
}

// Repeated workloads under any name must be served from the memo: the
// fingerprint keys the workload, not its name.
func TestMemoServesRenamedWorkload(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(11, 12, 8)
	renamed := instance.MustNew("different-name", in.M, in.Tasks)

	var first wire.ScheduleResponse
	status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: mustRaw(t, in)})
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.FromMemo {
		t.Fatal("first request served from memo")
	}

	var second wire.ScheduleResponse
	status, body = post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: mustRaw(t, renamed)})
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.FromMemo {
		t.Fatal("renamed copy of the same workload missed the memo")
	}
	if math.Float64bits(second.Makespan) != math.Float64bits(first.Makespan) {
		t.Fatal("memo hit differs from the original solve")
	}
}

// Every request-validation failure must be a typed 4xx before any work is
// queued.
func TestScheduleRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	good := mustRaw(t, instance.Mixed(1, 5, 4))

	cases := []struct {
		name       string
		body       any
		wantStatus int
		wantCode   string
	}{
		{"unknown solver", wire.ScheduleRequest{Instance: good, Options: &wire.RequestOptions{Solver: "nope"}},
			http.StatusBadRequest, wire.CodeUnknownSolver},
		{"unknown portfolio member", wire.ScheduleRequest{Instance: good, Options: &wire.RequestOptions{Portfolio: []string{"mrt", "nope"}}},
			http.StatusBadRequest, wire.CodeUnknownSolver},
		{"recursive portfolio", wire.ScheduleRequest{Instance: good, Options: &wire.RequestOptions{Portfolio: []string{"portfolio"}}},
			http.StatusBadRequest, wire.CodeBadOptions},
		{"negative parallelism", wire.ScheduleRequest{Instance: good, Options: &wire.RequestOptions{Parallelism: -1}},
			http.StatusBadRequest, wire.CodeBadOptions},
		{"parallelism over cap", wire.ScheduleRequest{Instance: good, Options: &wire.RequestOptions{Parallelism: DefaultMaxParallel + 1}},
			http.StatusBadRequest, wire.CodeBadOptions},
		{"negative timeout", wire.ScheduleRequest{Instance: good, Options: &wire.RequestOptions{TimeoutMS: -5}},
			http.StatusBadRequest, wire.CodeBadOptions},
		{"eps out of range", wire.ScheduleRequest{Instance: good, Options: &wire.RequestOptions{Eps: 2}},
			http.StatusBadRequest, wire.CodeBadOptions},
		{"zero-processor instance", wire.ScheduleRequest{Instance: json.RawMessage(`{"name":"x","m":0,"tasks":[{"name":"a","times":[1]}]}`)},
			http.StatusBadRequest, wire.CodeBadInstance},
		{"non-monotone instance", wire.ScheduleRequest{Instance: json.RawMessage(`{"name":"x","m":2,"tasks":[{"name":"a","times":[1,2]}]}`)},
			http.StatusBadRequest, wire.CodeBadInstance},
		{"missing instance", wire.ScheduleRequest{},
			http.StatusBadRequest, wire.CodeBadInstance},
		{"malformed body", json.RawMessage(`{"instance": 7`),
			http.StatusBadRequest, wire.CodeBadRequest},
	}
	for _, tc := range cases {
		var status int
		var body []byte
		if raw, ok := tc.body.(json.RawMessage); ok {
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			_, _ = out.ReadFrom(resp.Body)
			resp.Body.Close()
			status, body = resp.StatusCode, out.Bytes()
		} else {
			status, body = post(t, ts, "/v1/schedule", tc.body)
		}
		if status != tc.wantStatus {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, status, tc.wantStatus, body)
			continue
		}
		if code := errCode(t, body); code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.wantCode)
		}
	}

	// Wrong method: the mux's method patterns must refuse it.
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/schedule: HTTP %d, want 405", resp.StatusCode)
	}
}

// The acceptance criterion for response verification: a corrupted plan must
// yield a typed 500, never a bad schedule, on both response paths.
func TestCorruptedPlanYields500(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	raw := mustRaw(t, instance.Mixed(21, 8, 6))

	// Sanity: uncorrupted requests pass.
	if status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw}); status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}

	corruptions := []struct {
		name   string
		mutate func(sol *engine.Solution)
	}{
		{"inflated makespan", func(sol *engine.Solution) { sol.Makespan *= 2 }},
		{"bogus lower bound", func(sol *engine.Solution) { sol.LowerBound = sol.Makespan * 3 }},
		{"dropped placement", func(sol *engine.Solution) { sol.Plan.Placements = sol.Plan.Placements[1:] }},
	}
	failures := uint64(0)
	for _, c := range corruptions {
		s.corrupt = c.mutate
		// A fresh name defeats nothing — the memo is keyed name-free — so
		// memo hits flow through the same verification. Both cold and
		// memoised paths must 500.
		status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw})
		if status != http.StatusInternalServerError {
			t.Fatalf("%s: HTTP %d, want 500 (%s)", c.name, status, body)
		}
		if code := errCode(t, body); code != wire.CodeVerifyFailed {
			t.Fatalf("%s: code %q, want %q", c.name, code, wire.CodeVerifyFailed)
		}
		failures++

		// The batch path runs the same gate per item.
		status, body = post(t, ts, "/v1/batch", wire.BatchRequest{Instances: []json.RawMessage{raw}})
		if status != http.StatusOK {
			t.Fatalf("%s: batch HTTP %d (%s)", c.name, status, body)
		}
		var br wire.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if br.Results[0].Error == nil || br.Results[0].Error.Code != wire.CodeVerifyFailed {
			t.Fatalf("%s: batch item error %+v, want %s", c.name, br.Results[0].Error, wire.CodeVerifyFailed)
		}
		failures++
	}
	s.corrupt = nil

	// The counter pages: /statsz reports every withheld response.
	if st := s.Stats(); st.VerifyFailures != failures {
		t.Fatalf("VerifyFailures = %d, want %d", st.VerifyFailures, failures)
	}
	// And the service recovers once the fault is gone.
	if status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw}); status != http.StatusOK {
		t.Fatalf("post-corruption request failed: HTTP %d: %s", status, body)
	}
}

// One poisoned batch item must fail alone, typed; siblings succeed — the
// service-level half of the silent-drop fix.
func TestBatchIsolatesPoisonedItem(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good1 := instance.Mixed(31, 7, 6)
	good2 := instance.RandomMonotone(32, 5, 4)
	items := []json.RawMessage{
		mustRaw(t, good1),
		json.RawMessage(`{"name":"poison-m0","m":0,"tasks":[{"name":"a","times":[1]}]}`),
		mustRaw(t, good2),
		json.RawMessage(`{"name":"poison-nonmono","m":2,"tasks":[{"name":"a","times":[1,5]}]}`),
		json.RawMessage(`"not an instance object"`),
	}
	status, body := post(t, ts, "/v1/batch", wire.BatchRequest{Instances: items})
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	var br wire.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(items) {
		t.Fatalf("%d results for %d items", len(br.Results), len(items))
	}
	for _, i := range []int{1, 3, 4} {
		if br.Results[i].Error == nil {
			t.Fatalf("poisoned item %d succeeded: %+v", i, br.Results[i].Result)
		}
		if br.Results[i].Error.Code != wire.CodeBadInstance && br.Results[i].Error.Code != wire.CodeBadRequest {
			t.Fatalf("poisoned item %d: code %q", i, br.Results[i].Error.Code)
		}
	}
	for idx, in := range map[int]*instance.Instance{0: good1, 2: good2} {
		item := br.Results[idx]
		if item.Error != nil {
			t.Fatalf("healthy sibling %d failed: %+v", idx, item.Error)
		}
		want, err := engine.Solve(in, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(item.Result.Makespan) != math.Float64bits(want.Makespan) {
			t.Fatalf("sibling %d: makespan %v, want %v", idx, item.Result.Makespan, want.Makespan)
		}
	}
}

// Batch-level request validation.
func TestBatchRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	good := mustRaw(t, instance.Mixed(1, 5, 4))

	status, body := post(t, ts, "/v1/batch", wire.BatchRequest{})
	if status != http.StatusBadRequest || errCode(t, body) != wire.CodeBadRequest {
		t.Fatalf("empty batch: HTTP %d %s", status, body)
	}
	status, body = post(t, ts, "/v1/batch", wire.BatchRequest{Instances: []json.RawMessage{good, good, good, good}})
	if status != http.StatusBadRequest || errCode(t, body) != wire.CodeBadRequest {
		t.Fatalf("oversized batch: HTTP %d %s", status, body)
	}
	status, body = post(t, ts, "/v1/batch", wire.BatchRequest{
		Instances: []json.RawMessage{good},
		Options:   &wire.RequestOptions{Solver: "nope"},
	})
	if status != http.StatusBadRequest || errCode(t, body) != wire.CodeUnknownSolver {
		t.Fatalf("unknown batch solver: HTTP %d %s", status, body)
	}
}

// Per-request solver selection must flow through to the pipeline.
func TestPerRequestSolverSelection(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	raw := mustRaw(t, instance.Mixed(41, 6, 4))

	for _, name := range []string{"seq-lpt", "twy-ffdh"} {
		status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw, Options: &wire.RequestOptions{Solver: name}})
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", name, status, body)
		}
		var resp wire.ScheduleResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Solver != name {
			t.Fatalf("solver %q served by %q", name, resp.Solver)
		}
	}
}

// statsz must reflect the work done.
func TestStatsz(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 5})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for seed := int64(0); seed < 4; seed++ {
		raw := mustRaw(t, instance.Mixed(50+seed, 6, 4))
		if status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw}); status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, body)
		}
	}
	status, body := get(t, ts, "/statsz")
	if status != http.StatusOK {
		t.Fatalf("HTTP %d", status)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Queue.Depth != 5 || st.Queue.Accepted != 4 || st.Queue.Rejected != 0 || st.Queue.InFlight != 0 {
		t.Fatalf("queue stats off: %+v", st.Queue)
	}
	// One entry: the process's engine.
	if len(st.Shards) != 1 {
		t.Fatalf("%d shard entries, want 1", len(st.Shards))
	}
	sh := st.Shards[0]
	if sh.Shard != 0 || sh.Scheduled != 4 {
		t.Fatalf("engine entry %+v, want shard 0 with 4 scheduled", sh)
	}
	// Four distinct workloads: each compiled exactly once at admission.
	if sh.CompileMisses != 4 {
		t.Fatalf("compile_misses %d, want 4: %+v", sh.CompileMisses, sh)
	}
}

// The compiled-instance cache behind /statsz's compile_hits/compile_misses
// is probed only after a memo miss: repeats of one workload under different
// options — which miss the memo — compile once and hit the cache
// afterwards, and a memo hit touches neither counter.
func TestStatszCompileCounters(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 5})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	raw := mustRaw(t, instance.Mixed(77, 8, 4))
	for _, opts := range []*wire.RequestOptions{
		nil,              // memo miss, compile miss
		nil,              // memo hit, no compiled-cache probe
		{Eps: 0.05},      // memo miss (options differ), compile hit
		{Parallelism: 2}, // memo hit (parallelism ignored), no probe
	} {
		if status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw, Options: opts}); status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", status, body)
		}
	}
	status, body := get(t, ts, "/statsz")
	if status != http.StatusOK {
		t.Fatalf("HTTP %d", status)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	sh := st.Shards[0]
	if sh.CompileMisses != 1 || sh.CompileHits != 1 || sh.CompiledEntries != 1 {
		t.Fatalf("compile counters off: %+v", sh)
	}
	if sh.MemoHits != 2 || sh.MemoMisses != 2 {
		t.Fatalf("memo counters off: %+v", sh)
	}
}

// The wire plan for non-contiguous solvers must carry explicit processor
// sets that survive the round trip.
func TestNonContiguousPlanOnTheWire(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	in := instance.RandomMonotone(61, 4, 4) // tiny: exact applies
	raw := mustRaw(t, in)

	status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw, Options: &wire.RequestOptions{Solver: "exact"}})
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	var resp wire.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Solver != "exact" {
		t.Fatalf("served by %q", resp.Solver)
	}
	if math.Float64bits(resp.Makespan) != math.Float64bits(resp.LowerBound) {
		t.Fatalf("exact must certify its own optimum: mk %v lb %v", resp.Makespan, resp.LowerBound)
	}
	for _, p := range resp.Plan.Placements {
		if p.First == -1 && len(p.ProcSet) != p.Width {
			t.Fatalf("placement lost its processor set on the wire: %+v", p)
		}
	}
}

// An unroutable path is a plain 404, not a hang on the queue.
func TestUnknownPath(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, _ := get(t, ts, "/v2/everything")
	if status != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", status)
	}
}

// MaxTimeout must cap the default timeout on both option paths: a request
// without an options object gets the same effective deadline as one with
// an empty one.
func TestMaxTimeoutCapsDefault(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: 120 * time.Second, MaxTimeout: 60 * time.Second})
	for _, ro := range []*wire.RequestOptions{nil, {}} {
		_, timeout, errInfo := s.resolveOptions(ro)
		if errInfo != nil {
			t.Fatalf("options %+v rejected: %+v", ro, errInfo)
		}
		if timeout != 60*time.Second {
			t.Fatalf("options %+v: effective timeout %v, want the 60s cap", ro, timeout)
		}
	}
	// And an explicit per-request timeout is capped too, including values
	// whose nanosecond product overflows int64 (to a negative or zero
	// duration, which the engine would read as no deadline).
	for _, ms := range []int64{600_000, 9223372036855, 1 << 62, math.MaxInt64} {
		_, timeout, errInfo := s.resolveOptions(&wire.RequestOptions{TimeoutMS: ms})
		if errInfo != nil || timeout != 60*time.Second {
			t.Errorf("timeout_ms %d: timeout %v err %+v, want the 60s cap", ms, timeout, errInfo)
		}
	}
	// A request below the cap keeps its own deadline.
	if _, timeout, _ := s.resolveOptions(&wire.RequestOptions{TimeoutMS: 60_000}); timeout != 60*time.Second {
		t.Fatalf("timeout_ms 60000: timeout %v, want 60s", timeout)
	}
	if _, timeout, _ := s.resolveOptions(&wire.RequestOptions{TimeoutMS: 1}); timeout != time.Millisecond {
		t.Fatalf("timeout_ms 1: timeout %v, want 1ms", timeout)
	}
}

// The served JSON plan object is the bytes it was before the wire's plan
// and placement types became aliases of the schedule package's: the same
// keys in the same order, proc_set only on placements that carry one.
// Captured from the server before the merge, for contiguous placements
// (mrt) and for processor sets (the dag solver).
func TestJSONPlanBytesPinned(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	in := instance.Mixed(7, 6, 8)
	raw := mustRaw(t, in)
	for _, c := range []struct {
		name string
		req  wire.ScheduleRequest
		want string
	}{
		{"contiguous", wire.ScheduleRequest{Instance: raw},
			`{"algorithm":"canonical-list+realloc","placements":[{"task":1,"start":0,"width":3,"first":0},{"task":0,"start":0,"width":3,"first":3},{"task":3,"start":0,"width":1,"first":6},{"task":2,"start":0,"width":1,"first":7},{"task":5,"start":0.5110099966940077,"width":1,"first":7},{"task":4,"start":0.7401169358646739,"width":1,"first":7}]}`},
		{"proc sets", wire.ScheduleRequest{Instance: raw, Graph: precedence.RandomEdges(3, in.N(), 0.3), Options: &wire.RequestOptions{Solver: "dag"}},
			`{"algorithm":"dag-list","placements":[{"task":1,"start":0,"width":3,"first":-1,"proc_set":[0,1,2]},{"task":0,"start":0,"width":3,"first":-1,"proc_set":[3,4,5]},{"task":3,"start":0,"width":1,"first":-1,"proc_set":[6]},{"task":5,"start":0,"width":1,"first":-1,"proc_set":[7]},{"task":4,"start":0.22910693917066616,"width":1,"first":-1,"proc_set":[7]},{"task":2,"start":2.5014636581968266,"width":8,"first":-1,"proc_set":[0,1,2,3,4,5,6,7]}]}`},
	} {
		status, body := post(t, ts, "/v1/schedule", c.req)
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", c.name, status, body)
		}
		var resp struct{ Plan json.RawMessage }
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if string(resp.Plan) != c.want {
			t.Errorf("%s: plan object\n got %s\nwant %s", c.name, resp.Plan, c.want)
		}
	}
}
