package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/solver"
	"malsched/internal/verify"
	"malsched/internal/wire"
)

// A valid DAG request round-trips: 200, served by the requested edge-aware
// solver, and the returned plan passes the precedence verifier on the
// client side too — against the graph the client sent, not anything the
// server claims.
func TestScheduleDAGRequest(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(7, 5, 4)
	raw := mustRaw(t, in)
	graph := precedence.ChainEdges(in.N())
	req := wire.ScheduleRequest{Instance: raw, Graph: graph, Options: &wire.RequestOptions{Solver: solver.DAGSolverName}}

	status, body := post(t, ts, "/v1/schedule", req)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	var resp wire.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Solver != solver.DAGSolverName {
		t.Fatalf("served by %q, want %q", resp.Solver, solver.DAGSolverName)
	}
	if err := verify.Precedence(in, graph, &resp.Plan); err != nil {
		t.Fatalf("served plan violates the requested precedence: %v", err)
	}

	// The same DAG request again hits the shard memo; the independent-task
	// projection of the same instance must not — the fingerprint keeps the
	// two workloads apart.
	status, body = post(t, ts, "/v1/schedule", req)
	if status != http.StatusOK {
		t.Fatalf("repeat: HTTP %d: %s", status, body)
	}
	var again wire.ScheduleResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.FromMemo {
		t.Fatal("repeated DAG request did not hit the memo")
	}
	proj := wire.ScheduleRequest{Instance: raw, Options: &wire.RequestOptions{Solver: solver.DAGSolverName}}
	status, body = post(t, ts, "/v1/schedule", proj)
	if status != http.StatusOK {
		t.Fatalf("projection: HTTP %d: %s", status, body)
	}
	var pres wire.ScheduleResponse
	if err := json.Unmarshal(body, &pres); err != nil {
		t.Fatal(err)
	}
	if pres.FromMemo {
		t.Fatal("projection request aliased the DAG's memo entry")
	}
}

// Hostile graphs are typed 400s with their own code, never a panic and
// never a solve: cyclic, self-edge, out-of-range endpoint, negative
// endpoint, and shape-mismatched successor lists.
func TestScheduleHostileGraphs(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(3, 3, 4) // 3 tasks
	raw := mustRaw(t, in)
	cases := []struct {
		name  string
		graph [][]int
	}{
		{"cycle", [][]int{{1}, {2}, {0}}},
		{"self-edge", [][]int{{0}, nil, nil}},
		{"out-of-range", [][]int{{7}, nil, nil}},
		{"negative", [][]int{{-1}, nil, nil}},
		{"shape-short", [][]int{{1}}},
		{"shape-long", [][]int{nil, nil, nil, nil, nil}},
	}
	for _, tc := range cases {
		req := wire.ScheduleRequest{Instance: raw, Graph: tc.graph, Options: &wire.RequestOptions{Solver: solver.DAGSolverName}}
		status, body := post(t, ts, "/v1/schedule", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (%s)", tc.name, status, body)
			continue
		}
		if code := errCode(t, body); code != wire.CodeBadGraph {
			t.Errorf("%s: error code %q, want %q", tc.name, code, wire.CodeBadGraph)
		}
	}
	if p := s.Stats().Shards[0].Panics; p != 0 {
		t.Fatalf("engine recovered %d panics on hostile graphs", p)
	}
}

// A graph with an edge-blind solver selection — explicit, defaulted, or a
// portfolio — is an options error, not a silently dropped constraint.
func TestScheduleGraphNeedsEdgeAwareSolver(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(5, 3, 4)
	raw := mustRaw(t, in)
	graph := precedence.ChainEdges(in.N())
	for _, opts := range []*wire.RequestOptions{
		{Solver: solver.PaperSolverName},
		nil, // server default solver is edge-blind
		{Portfolio: []string{"mrt", "twy-ffdh"}},
	} {
		status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw, Graph: graph, Options: opts})
		if status != http.StatusBadRequest {
			t.Fatalf("opts %+v: HTTP %d, want 400 (%s)", opts, status, body)
		}
		if code := errCode(t, body); code != wire.CodeBadOptions {
			t.Fatalf("opts %+v: error code %q, want %q", opts, code, wire.CodeBadOptions)
		}
	}
}

// An explicitly empty graph ([] per task, no edges) is valid — it is the
// independent-task projection requested through the DAG path.
func TestScheduleEmptyGraphIsValid(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(11, 4, 4)
	graph := make([][]int, in.N())
	req := wire.ScheduleRequest{Instance: mustRaw(t, in), Graph: graph, Options: &wire.RequestOptions{Solver: solver.DAGCrossoverSolverName}}
	status, body := post(t, ts, "/v1/schedule", req)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	var resp wire.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Solver != solver.DAGCrossoverSolverName {
		t.Fatalf("served by %q", resp.Solver)
	}
}
