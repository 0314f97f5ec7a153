package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/wire"
)

// postBinary sends a binary-encoded /v1/schedule request.
func postBinary(t *testing.T, ts *httptest.Server, in *instance.Instance, opts *wire.RequestOptions) (int, []byte, string) {
	t.Helper()
	buf := wire.AppendScheduleRequest(nil, in, nil, opts)
	resp, err := http.Post(ts.URL+"/v1/schedule", wire.ContentType, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes(), resp.Header.Get("Content-Type")
}

// TestBinaryScheduleBitIdenticalToJSON is the codec's core contract: the
// same instance over binary and JSON yields DeepEqual responses (memo
// provenance excluded — the second request of a pair hits the memo the
// first one filled).
func TestBinaryScheduleBitIdenticalToJSON(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, gen := range instance.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			in := gen(seed, 7+int(seed), 6)
			status, body, ct := postBinary(t, ts, in, nil)
			if status != http.StatusOK {
				t.Fatalf("%s/%d: binary HTTP %d: %q", name, seed, status, body)
			}
			if ct != wire.ContentType {
				t.Fatalf("%s/%d: binary response Content-Type = %q", name, seed, ct)
			}
			bin, err := wire.DecodeScheduleResponse(body)
			if err != nil {
				t.Fatalf("%s/%d: decoding binary response: %v", name, seed, err)
			}

			raw := mustRaw(t, in)
			status, jbody := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw})
			if status != http.StatusOK {
				t.Fatalf("%s/%d: JSON HTTP %d: %s", name, seed, status, jbody)
			}
			var js wire.ScheduleResponse
			if err := json.Unmarshal(jbody, &js); err != nil {
				t.Fatal(err)
			}
			// One engine per process: the frozen shard field reads 0 on
			// both codecs.
			if bin.Shard != 0 || js.Shard != 0 {
				t.Fatalf("%s/%d: shard = %d (binary), %d (JSON), want 0", name, seed, bin.Shard, js.Shard)
			}
			// The JSON request repeats the workload, so it reports a memo
			// hit; everything else must match bit for bit.
			bin.FromMemo, js.FromMemo = false, false
			if !reflect.DeepEqual(bin, &js) {
				t.Fatalf("%s/%d: codecs diverge:\n binary: %+v\n json:   %+v", name, seed, bin, &js)
			}
		}
	}
	var st StatsResponse
	_, sb := get(t, ts, "/statsz")
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.BinaryRequests == 0 {
		t.Fatal("binary_requests counter never moved")
	}
}

// TestBinaryDAGSchedule: wire/v2 graph-carrying requests solve through the
// same edge-aware path as JSON DAG requests (DeepEqual responses), hostile
// graphs are refused with a binary CodeBadGraph, and the graph_requests
// counter tracks both codecs.
func TestBinaryDAGSchedule(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	graphs := 0
	for name, gen := range instance.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			in := gen(seed, 6+int(seed), 5)
			graph := precedence.RandomEdges(seed*7+int64(len(name)), in.N(), 0.3)
			buf := wire.AppendScheduleRequest(nil, in, graph, &wire.RequestOptions{Solver: "dag"})
			resp, err := http.Post(ts.URL+"/v1/schedule", wire.ContentType, bytes.NewReader(buf))
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			graphs++
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%d: binary DAG HTTP %d: %q", name, seed, resp.StatusCode, body)
			}
			bin, err := wire.DecodeScheduleResponse(body)
			if err != nil {
				t.Fatalf("%s/%d: decoding binary DAG response: %v", name, seed, err)
			}
			if bin.Solver != "dag" {
				t.Fatalf("%s/%d: solved by %q, want dag", name, seed, bin.Solver)
			}

			status, jbody := post(t, ts, "/v1/schedule", wire.ScheduleRequest{
				Instance: mustRaw(t, in), Graph: graph,
				Options: &wire.RequestOptions{Solver: "dag"},
			})
			graphs++
			if status != http.StatusOK {
				t.Fatalf("%s/%d: JSON DAG HTTP %d: %s", name, seed, status, jbody)
			}
			var js wire.ScheduleResponse
			if err := json.Unmarshal(jbody, &js); err != nil {
				t.Fatal(err)
			}
			bin.FromMemo, js.FromMemo = false, false
			if !reflect.DeepEqual(bin, &js) {
				t.Fatalf("%s/%d: DAG codecs diverge:\n binary: %+v\n json:   %+v", name, seed, bin, &js)
			}
		}
	}

	// Hostile graph over the binary codec: cycle → binary CodeBadGraph.
	in := instance.Mixed(1, 4, 4)
	buf := wire.AppendScheduleRequest(nil, in, [][]int{{1}, {0}, nil, nil}, &wire.RequestOptions{Solver: "dag"})
	resp, err := http.Post(ts.URL+"/v1/schedule", wire.ContentType, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	graphs++
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cyclic graph: HTTP %d, want 400", resp.StatusCode)
	}
	eb, err := wire.DecodeError(body)
	if err != nil || eb.Error.Code != wire.CodeBadGraph {
		t.Fatalf("cyclic graph error: %+v, %v", eb, err)
	}

	var st StatsResponse
	_, sb := get(t, ts, "/statsz")
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.GraphRequests != uint64(graphs) {
		t.Fatalf("graph_requests = %d, want %d", st.GraphRequests, graphs)
	}
	if st.BinaryRequests == 0 {
		t.Fatal("binary_requests counter never moved")
	}
}

// Binary-negotiated requests must get binary errors on every failure path.
func TestBinaryErrorsAreBinary(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed framing → bad_request.
	resp, err := http.Post(ts.URL+"/v1/schedule", wire.ContentType, bytes.NewReader([]byte{'M', 'S'}))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated request: HTTP %d", resp.StatusCode)
	}
	eb, err := wire.DecodeError(body)
	if err != nil {
		t.Fatalf("error body is not binary: %v (%q)", err, body)
	}
	if eb.Error.Code != wire.CodeBadRequest {
		t.Fatalf("code %q, want %q", eb.Error.Code, wire.CodeBadRequest)
	}

	// Unknown solver → bad options class, still binary.
	in := instance.Mixed(1, 5, 4)
	status, body2, ct := postBinary(t, ts, in, &wire.RequestOptions{Solver: "no-such-solver"})
	if status != http.StatusBadRequest || ct != wire.ContentType {
		t.Fatalf("unknown solver: HTTP %d, Content-Type %q", status, ct)
	}
	eb2, err := wire.DecodeError(body2)
	if err != nil || eb2.Error.Code != wire.CodeUnknownSolver {
		t.Fatalf("unknown solver error: %+v, %v", eb2, err)
	}
}

// Admission rejections negotiate the codec too: a binary request shed by
// the full queue gets a binary queue_full with Retry-After.
func TestBinaryQueueFullIsBinary(t *testing.T) {
	s := New(Config{QueueDepth: 1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 2)
	s.admitted = func() {
		entered <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(gate)

	in := instance.Mixed(1, 5, 4)
	go func() {
		buf := wire.AppendScheduleRequest(nil, in, nil, nil)
		resp, err := http.Post(ts.URL+"/v1/schedule", wire.ContentType, bytes.NewReader(buf))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the queue's one token is now held

	status, body, ct := postBinary(t, ts, in, nil)
	if status != http.StatusTooManyRequests || ct != wire.ContentType {
		t.Fatalf("shed request: HTTP %d, Content-Type %q", status, ct)
	}
	eb, err := wire.DecodeError(body)
	if err != nil || eb.Error.Code != wire.CodeQueueFull {
		t.Fatalf("shed error: %+v, %v", eb, err)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// A JSON request with a binary-looking body must not be sniffed into the
// binary path: negotiation is by Content-Type alone.
func TestNegotiationIsByContentTypeOnly(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	buf := wire.AppendScheduleRequest(nil, instance.Mixed(1, 5, 4), nil, nil)
	resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("binary body under JSON Content-Type: HTTP %d", resp.StatusCode)
	}
	if errCode(t, body) != wire.CodeBadRequest {
		t.Fatalf("want JSON bad_request, got %s", body)
	}
}
