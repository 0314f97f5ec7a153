package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/wire"
)

// lineageChain encodes a parent instance and a sequence of residual
// carve-outs — the workload a replanning client re-submits under one
// lineage key.
func lineageChain(t *testing.T, seed int64) []json.RawMessage {
	t.Helper()
	parent := instance.Mixed(seed, 20, 8)
	pc := instance.Compile(parent)
	chain := []json.RawMessage{mustRaw(t, parent)}
	n := len(parent.Tasks)
	for step := 1; step <= 3; step++ {
		ids := make([]int, 0, n)
		rem := make([]float64, 0, n)
		for i := step * 3; i < n; i++ {
			ids = append(ids, i)
			rem = append(rem, 1)
		}
		rin, err := instance.Residual(pc, "resid", 8, ids, rem)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, mustRaw(t, rin))
	}
	return chain
}

// A lineage key must not change any answer: every response of a
// same-lineage request sequence is bit-identical to the same requests
// without the key, and the engine's warm counters record the solves.
func TestLineageRequestsWarmAndIdentical(t *testing.T) {
	s := New(Config{Workers: 2, MemoCapacity: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	chain := lineageChain(t, 6)
	opts := &wire.RequestOptions{Lineage: "client-7/queue-a"}
	var warmSynth int
	for i, raw := range chain {
		status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw, Options: opts})
		if status != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, status, body)
		}
		var warm wire.ScheduleResponse
		if err := json.Unmarshal(body, &warm); err != nil {
			t.Fatal(err)
		}
		warmSynth += warm.Synthesized

		status, body = post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: raw})
		if status != http.StatusOK {
			t.Fatalf("step %d cold: status %d: %s", i, status, body)
		}
		var cold wire.ScheduleResponse
		if err := json.Unmarshal(body, &cold); err != nil {
			t.Fatal(err)
		}
		// Everything but probe accounting must match bitwise.
		warm.Probes, cold.Probes = 0, 0
		warm.Synthesized, cold.Synthesized = 0, 0
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("step %d: lineage changed the response:\nwarm: %+v\ncold: %+v", i, warm, cold)
		}
	}
	if warmSynth == 0 {
		t.Fatal("lineage chain synthesized no probe outcomes")
	}

	_, body := get(t, ts, "/statsz")
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	sh := stats.Shards[0]
	if sh.WarmSolves != uint64(len(chain)) {
		t.Fatalf("warm_solves = %d, want %d", sh.WarmSolves, len(chain))
	}
	if sh.Synthesized != uint64(warmSynth) || sh.Synthesized == 0 {
		t.Fatalf("synthesized = %d, want %d (> 0)", sh.Synthesized, warmSynth)
	}
	// The registry is LRU-backed; with the memo disabled states are
	// per-call, so no entries are resident.
	if sh.WarmEntries != 0 {
		t.Fatalf("memo-disabled engine reports %d warm entries", sh.WarmEntries)
	}
}

// With the registry enabled, one lineage key occupies one entry and the
// carried state survives across requests.
func TestLineageRegistryResidency(t *testing.T) {
	s := New(Config{Workers: 1, MemoCapacity: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	chain := lineageChain(t, 8)
	for _, raw := range chain {
		status, body := post(t, ts, "/v1/schedule",
			wire.ScheduleRequest{Instance: raw, Options: &wire.RequestOptions{Lineage: "lin-1"}})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	_, body := get(t, ts, "/statsz")
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if entries := stats.Shards[0].WarmEntries; entries != 1 {
		t.Fatalf("one lineage should occupy one registry entry, got %d", entries)
	}
}

// An oversized lineage key is rejected at validation, before any work.
func TestLineageTooLong(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	in := instance.Mixed(1, 6, 4)
	status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{
		Instance: mustRaw(t, in),
		Options:  &wire.RequestOptions{Lineage: strings.Repeat("x", MaxLineageBytes+1)},
	})
	if status != http.StatusBadRequest || errCode(t, body) != wire.CodeBadOptions {
		t.Fatalf("want 400 %s, got %d %s", wire.CodeBadOptions, status, body)
	}
}
