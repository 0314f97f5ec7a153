package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"malsched/internal/router"
	"malsched/internal/server"
)

// The service's end-to-end differential oracle: five seeded workloads —
// JSON singles, /v1/batch, the binary codec, DAG requests over JSON and
// over wire/v2 frames — replayed against one shard with one solve slot
// must agree bit for bit with the in-process pipeline, and the shard's
// /statsz must show every path was taken with nothing shed or failed.
// The binary workload then runs again, against the warmed shard and through
// a router in front of it: every answer is a memo hit, the binary ones
// served from the entries' verified bytes, and still none differs.
func TestDifferentialAgainstServer(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rt, err := router.New(router.Config{Backends: []router.Backend{{Name: "s0", Handler: srv.Handler()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routed := httptest.NewServer(rt.Handler())
	defer routed.Close()

	const repeat = "-seed 3 -n 100 -codec binary"
	msload := func(addr, args string) string {
		t.Helper()
		var out strings.Builder
		if err := run(append([]string{"-addr", addr}, strings.Fields(args)...), &out); err != nil {
			t.Fatalf("msload %s: %v", args, err)
		}
		if !strings.HasPrefix(out.String(), "msload: 0 mismatches") {
			t.Fatalf("msload %s: %q", args, out.String())
		}
		return out.String()
	}
	for _, args := range []string{
		"-seed 1 -n 200",
		"-seed 2 -n 60 -batch 8",
		repeat,
		"-seed 4 -n 60 -dag",
		"-seed 5 -n 60 -dag -codec binary",
	} {
		msload(ts.URL, args)
	}
	for _, addr := range []string{ts.URL, routed.URL} {
		// Two answers per request, the JSON one and the binary one.
		if out, want := msload(addr, repeat), "200 of 200 answers from the memo"; !strings.Contains(out, want) {
			t.Fatalf("msload %s again via %s: %q, want %q", repeat, addr, out, want)
		}
	}
	if _, page := scrape(t, ts.URL+"/metricsz"); !strings.Contains(page, "\nmalsched_memo_byte_hits_total ") ||
		strings.Contains(page, "\nmalsched_memo_byte_hits_total 0\n") {
		t.Fatalf("no byte hits counted:\n%s", page)
	}

	body, _ := scrape(t, ts.URL+"/statsz")
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
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

// scrape reads one admin page.
func scrape(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, string(body)
}
