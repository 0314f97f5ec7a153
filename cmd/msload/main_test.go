package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"malsched/internal/server"
)

// The service's end-to-end differential oracle: five seeded workloads —
// JSON singles, /v1/batch, the binary codec, DAG requests over JSON and
// over wire/v2 frames — replayed against one shard with one solve slot
// must agree bit for bit with the in-process pipeline, and the shard's
// /statsz must show every path was taken with nothing shed or failed.
func TestDifferentialAgainstServer(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, args := range []string{
		"-seed 1 -n 200",
		"-seed 2 -n 60 -batch 8",
		"-seed 3 -n 100 -codec binary",
		"-seed 4 -n 60 -dag",
		"-seed 5 -n 60 -dag -codec binary",
	} {
		var out strings.Builder
		if err := run(append([]string{"-addr", ts.URL}, strings.Fields(args)...), &out); err != nil {
			t.Fatalf("msload %s: %v", args, err)
		}
		if !strings.HasPrefix(out.String(), "msload: 0 mismatches") {
			t.Fatalf("msload %s: %q", args, out.String())
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.VerifyFailures != 0 {
		t.Errorf("%d verify failures", st.VerifyFailures)
	}
	if st.Queue.Accepted == 0 || st.Queue.Rejected != 0 {
		t.Errorf("admission: %d accepted, %d rejected", st.Queue.Accepted, st.Queue.Rejected)
	}
	if st.BinaryRequests == 0 {
		t.Error("no binary requests counted")
	}
	if st.GraphRequests < 120 {
		t.Errorf("%d graph requests, want ≥ 120", st.GraphRequests)
	}
	for i, sh := range st.Shards {
		if sh.Errors != 0 {
			t.Errorf("shard %d: %d errors", i, sh.Errors)
		}
	}
}
