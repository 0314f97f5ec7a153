package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/server"
	"malsched/internal/wire"
)

// reusedCall is a caller that pays for its request and recorder once, so
// AllocsPerRun counts the router and the shard and nothing of the client.
type reusedCall struct {
	req  *http.Request
	body bytes.Reader
	rec  reusedRecorder
}

type reusedRecorder struct {
	header http.Header
	status int
	n      int
}

func (r *reusedRecorder) Header() http.Header         { return r.header }
func (r *reusedRecorder) WriteHeader(s int)           { r.status = s }
func (r *reusedRecorder) Write(p []byte) (int, error) { r.n += len(p); return len(p), nil }

func newReusedCall(t testing.TB, contentType string) *reusedCall {
	t.Helper()
	c := &reusedCall{rec: reusedRecorder{header: make(http.Header)}}
	req, err := http.NewRequest(http.MethodPost, "/v1/schedule", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	req.Body = io.NopCloser(&c.body)
	c.req = req
	return c
}

func (c *reusedCall) do(h http.Handler, frame []byte) int {
	c.body.Reset(frame)
	c.req.ContentLength = int64(len(frame))
	clear(c.rec.header)
	c.rec.status, c.rec.n = http.StatusOK, 0
	h.ServeHTTP(&c.rec, c.req)
	return c.rec.status
}

// BenchmarkRoutedHit is the serving envelope of a binary memo hit, the
// serve-hot shape: 64 popular 24×16 instances, alternating the mixed and
// comm-heavy families, sent through the router to an in-process shard by a
// caller that reuses its request and recorder. No solver runs in the timed
// loop, so ns/op and allocs/op are the router's, the shard's and the
// memo's own.
func BenchmarkRoutedHit(b *testing.B) {
	benchRoutedHit(b, wire.ContentType, func(in *instance.Instance) []byte {
		return wire.AppendScheduleRequest(nil, in, nil, nil)
	})
}

// BenchmarkRoutedJSONHit is BenchmarkRoutedHit over the JSON codec, the
// serve-mix hot-JSON class: the same 64 instances as json.Marshal bodies.
func BenchmarkRoutedJSONHit(b *testing.B) {
	benchRoutedHit(b, wire.JSONContentType, func(in *instance.Instance) []byte {
		raw, err := server.EncodeInstance(in)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(wire.ScheduleRequest{Instance: raw})
		if err != nil {
			b.Fatal(err)
		}
		return body
	})
}

// BenchmarkRoutedMiss is the serving envelope of a memo miss into a full
// memo, the serve-cold shape: distinct 24×16 frames cycled in order through
// the router to an in-process shard whose memo holds a quarter of them, so
// every request decodes, compiles, searches, verifies and encodes, and
// every put evicts. allocs/op is the hop's, the shard's and the solve's.
func BenchmarkRoutedMiss(b *testing.B) {
	const capacity, n, m = 64, 24, 16
	frames := make([][]byte, 4*capacity)
	for k := range frames {
		frames[k] = wire.AppendScheduleRequest(nil, instance.Mixed(int64(1000+k), n, m), nil, nil)
	}
	shard := server.New(server.Config{Workers: 1, MemoCapacity: capacity})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	c := newReusedCall(b, wire.ContentType)
	for _, frame := range frames { // fills the memo past its capacity
		if code := c.do(rt.Handler(), frame); code != http.StatusOK {
			b.Fatalf("HTTP %d", code)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := c.do(rt.Handler(), frames[i%len(frames)]); code != http.StatusOK {
			b.Fatalf("HTTP %d", code)
		}
	}
	b.StopTimer()
	if st := shard.Stats().Shards[0]; st.MemoHits != 0 {
		b.Fatalf("%d memo hits among distinct frames cycled past the memo's capacity", st.MemoHits)
	}
}

func benchRoutedHit(b *testing.B, contentType string, encode func(*instance.Instance) []byte) {
	const pool, n, m = 64, 24, 16
	bodies := make([][]byte, pool)
	for k := range bodies {
		in := instance.Mixed(int64(k), n, m)
		if k%2 == 1 {
			in = instance.CommHeavy(int64(k), n, m)
		}
		bodies[k] = encode(in)
	}
	shard := server.New(server.Config{Workers: 1})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	c := newReusedCall(b, contentType)
	for _, body := range bodies { // fills the memo
		if code := c.do(rt.Handler(), body); code != http.StatusOK {
			b.Fatalf("HTTP %d", code)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := c.do(rt.Handler(), bodies[i%pool]); code != http.StatusOK {
			b.Fatalf("HTTP %d", code)
		}
	}
	b.StopTimer()
	if st := shard.Stats().Shards[0]; st.MemoMisses != pool {
		b.Fatalf("%d memo misses for %d popular instances", st.MemoMisses, pool)
	}
}
