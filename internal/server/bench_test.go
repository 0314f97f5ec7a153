package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/wire"
)

// The serving-path benchmarks drive the handler directly (no socket) with
// a pre-encoded request body, so ns/op and allocs/op measure the
// per-request server cost: admission, codec, memo-hit solve, verification
// and response encoding. Run with -benchmem (allocs are also reported
// explicitly): the binary codec and the pooled response buffers exist to
// push allocs/op down, and router.TestAllocBinaryBelowJSON pins the same
// win through the routing tier.

func benchSchedule(b *testing.B, binary bool) {
	s := New(Config{Shards: 1, Workers: 2})
	in := instance.Mixed(1, 12, 8)

	var body []byte
	contentType := "application/json"
	if binary {
		body = wire.AppendScheduleRequest(nil, in, nil, nil)
		contentType = wire.ContentType
	} else {
		raw, err := EncodeInstance(in)
		if err != nil {
			b.Fatal(err)
		}
		body, err = json.Marshal(wire.ScheduleRequest{Instance: raw})
		if err != nil {
			b.Fatal(err)
		}
	}

	// Warm the memo so iterations measure the serving path, not the solve.
	warm := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	s.Handler().ServeHTTP(warm, req)
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup HTTP %d: %s", warm.Code, warm.Body.Bytes())
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}

func BenchmarkScheduleJSON(b *testing.B)   { benchSchedule(b, false) }
func BenchmarkScheduleBinary(b *testing.B) { benchSchedule(b, true) }
