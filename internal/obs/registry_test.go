package obs

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", "codec", "json")
	c.Add(3)
	r.Counter("test_requests_total", "Requests served.", "codec", "binary").Inc()
	r.GaugeFunc("test_in_flight", "In-flight requests.", func() float64 { return 2 })
	h := r.Histogram("test_latency_us", "Latency.", "stage", "solve")
	h.Observe(5)
	h.Observe(5)
	h.Observe(100)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total Requests served.\n# TYPE test_requests_total counter\n",
		`test_requests_total{codec="json"} 3`,
		`test_requests_total{codec="binary"} 1`,
		"# TYPE test_in_flight gauge\ntest_in_flight 2\n",
		"# TYPE test_latency_us histogram",
		`test_latency_us_bucket{stage="solve",le="5"} 2`,
		`test_latency_us_bucket{stage="solve",le="111"} 3`,
		`test_latency_us_bucket{stage="solve",le="+Inf"} 3`,
		`test_latency_us_sum{stage="solve"} 110`,
		`test_latency_us_count{stage="solve"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Same (name, labels) must resolve to the same instrument.
	if got := r.Counter("test_requests_total", "Requests served.", "codec", "json").Value(); got != 3 {
		t.Fatalf("get-or-create returned a fresh counter (value %d)", got)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST = %d, want 405", post.StatusCode)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total", "C.").Inc()
				r.Histogram("h_us", "H.", "k", "v").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "C.").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_us", "H.", "k", "v").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// A Vec builds each key's instrument once, however many goroutines race
// for it, and hands every caller the same one.
func TestVecBuildsOncePerKey(t *testing.T) {
	r := NewRegistry()
	type key struct {
		codec  string
		status int
	}
	var built sync.Map
	v := NewVec(func(k key) *Counter {
		if _, dup := built.LoadOrStore(k, true); dup {
			t.Errorf("key %+v built twice", k)
		}
		return r.Counter("v_total", "V.", "codec", k.codec, "status", strconv.Itoa(k.status))
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.Get(key{codec: []string{"json", "binary"}[j%2], status: 200}).Inc()
			}
		}()
	}
	wg.Wait()
	for _, codec := range []string{"json", "binary"} {
		c := v.Get(key{codec: codec, status: 200})
		if c != r.Counter("v_total", "V.", "codec", codec, "status", "200") || c.Value() != 4000 {
			t.Fatalf("%s: %d, want the registry's counter at 4000", codec, c.Value())
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "E.", "name", `a"b\c`+"\n").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if want := `e_total{name="a\"b\\c\n"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

// idPattern is the request ID's format.
var idPattern = regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]+$`)

// Request IDs are unique and well formed across goroutines minting at once:
// 8 × 1000 IDs cross many block boundaries, and the race detector sees the
// blocks handed from the goroutine that minted them to the ones that claim
// their IDs.
func TestNewRequestID(t *testing.T) {
	const goroutines, each = 8, 1000
	minted := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range minted {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, each)
			for i := range ids {
				if i%2 == 0 {
					ids[i] = NewRequestID()
				} else {
					ids[i] = SetRequestID(make(http.Header), "")
				}
			}
			minted[g] = ids
		}()
	}
	wg.Wait()
	seen := make(map[string]bool, goroutines*each)
	for _, ids := range minted {
		for _, id := range ids {
			if !idPattern.MatchString(id) {
				t.Fatalf("malformed request ID %q", id)
			}
			if seen[id] {
				t.Fatalf("duplicate request ID %q", id)
			}
			seen[id] = true
		}
	}
	if blocks := goroutines * each / idBlockSize; blocks < 100 {
		t.Fatalf("the run crossed %d block boundaries", blocks)
	}
}

// SetRequestID echoes the request's own ID, and otherwise mints one whose
// header value has capacity 1: appending to it copies, so no caller can
// write into the block other requests' IDs come from.
func TestSetRequestID(t *testing.T) {
	h := make(http.Header)
	if id := SetRequestID(h, "client-7"); id != "client-7" || h.Get(RequestIDHeader) != "client-7" {
		t.Fatalf("echoed %q, header %q", id, h.Get(RequestIDHeader))
	}
	h = make(http.Header)
	id := SetRequestID(h, "")
	v := h[RequestIDHeader]
	if len(v) != 1 || cap(v) != 1 || v[0] != id {
		t.Fatalf("minted header value %q (cap %d) for ID %q", v, cap(v), id)
	}
	grown := append(v, "extra")
	grown[0] = "overwritten"
	if next := NewRequestID(); v[0] != id || !idPattern.MatchString(next) {
		t.Fatalf("an append reached the block: %q, next ID %q", v[0], next)
	}
}
