package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"malsched/internal/engine"
	"malsched/internal/fphash"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/task"
	"malsched/internal/wire"
)

// fphash's round constants (fphash.TestPinnedVectors pins the kernel).
const prime1, prime2 = 0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F

// inverse returns x with x·p ≡ 1 (mod 2⁶⁴) for odd p.
func inverse(p uint64) uint64 {
	x := p
	for range 6 {
		x *= 2 - p*x
	}
	return x
}

// foldRows folds m, n and the rows of tasks as the engine's workload
// fingerprint does, with n stated separately so a prefix of the tasks can
// be folded toward a full workload's state.
func foldRows(m, n int, tasks []task.Task) fphash.Hash {
	h := fphash.New()
	h.Word(uint64(m))
	h.Word(uint64(n))
	for _, tk := range tasks {
		h.Word(uint64(tk.MaxProcs()))
		for p := 1; p <= tk.MaxProcs(); p++ {
			h.Word(math.Float64bits(tk.Time(p)))
		}
	}
	return h
}

// forge returns a workload of a's machine size and task count whose
// fingerprint state is a's — so its memo, compiled-cache and route keys are
// a's under any options — or nil when a has no nudge that yields one: a's
// tasks but the last, one time moved by an ulp, and a width-1 last task
// whose time is one fphash round solved backwards to a's state.
func forge(a *instance.Instance) *instance.Instance {
	n := a.N()
	target := foldRows(a.M, n, a.Tasks)
	for i := 0; i < n-1; i++ {
		row := make([]float64, a.Tasks[i].MaxProcs())
		for p := range row {
			row[p] = a.Tasks[i].Time(p + 1)
		}
		for p := range row {
			for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
				nudged := append([]float64(nil), row...)
				nudged[p] = math.Nextafter(nudged[p], dir)
				tk, err := task.New(a.Tasks[i].Name, nudged)
				if err != nil {
					continue
				}
				tasks := append([]task.Task(nil), a.Tasks[:n-1]...)
				tasks[i] = tk
				h := foldRows(a.M, n, tasks)
				h.Word(1)
				y := bits.RotateLeft64(uint64(target)*inverse(prime1), -31)
				last, err := task.New("forged", []float64{math.Float64frombits((y - uint64(h)) * inverse(prime2))})
				if err != nil {
					continue
				}
				if b, err := instance.New(a.Name+"-forged", a.M, append(tasks, last)); err == nil {
					return b
				}
			}
		}
	}
	return nil
}

// A workload crafted onto another's keys cannot deny it service: once the
// forgery holds the memo slot (and the compiled tables), the victim still
// gets a 200 with its own plan over both codecs, and /metricsz counts each
// probe that found the other workload's words.
func TestCollidingWorkloadGetsItsOwnPlan(t *testing.T) {
	a := instance.Mixed(7, 24, 16)
	b := forge(a)
	if b == nil || engine.WorkloadFingerprintDAG(a, nil) != engine.WorkloadFingerprintDAG(b, nil) {
		t.Fatal("no forged workload shares A's key")
	}
	own, err := engine.Solve(a, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, codec := range []string{"json", "binary"} {
		// The forgery fills the slot and, repeated, carries its bytes.
		for range 2 {
			if status, _, _ := postBinary(t, ts, b, nil); status != http.StatusOK {
				t.Fatalf("forged workload: HTTP %d", status)
			}
		}
		var got *wire.ScheduleResponse
		if codec == "json" {
			status, body := post(t, ts, "/v1/schedule", wire.ScheduleRequest{Instance: mustRaw(t, a)})
			if status != http.StatusOK {
				t.Fatalf("json: HTTP %d: %s", status, body)
			}
			got = new(wire.ScheduleResponse)
			if err := json.Unmarshal(body, got); err != nil {
				t.Fatal(err)
			}
		} else {
			status, body, _ := postBinary(t, ts, a, nil)
			if status != http.StatusOK {
				t.Fatalf("binary: HTTP %d: %q", status, body)
			}
			if got, err = wire.DecodeScheduleResponse(body); err != nil {
				t.Fatal(err)
			}
		}
		if got.FromMemo || got.Makespan != own.Makespan || got.LowerBound != own.LowerBound ||
			!reflect.DeepEqual(got.Plan.Placements, own.Plan.Placements) {
			t.Fatalf("%s: A answered with makespan %v from memo %v; its own is %v", codec, got.Makespan, got.FromMemo, own.Makespan)
		}
	}
	// A meets the forgery's memo entry and compiled tables in each round,
	// and the forgery meets A's in the second: six probes refused. The
	// byte hit that A's binary request tried first declined without
	// counting; its full path counted.
	st := s.eng.Stats()
	if st.Collisions != 6 || s.Stats().VerifyFailures != 0 {
		t.Fatalf("collisions %d (want 6), verify failures %d", st.Collisions, s.Stats().VerifyFailures)
	}
	_, text := get(t, ts, "/metricsz")
	if got := sampleSum(string(text), "malsched_memo_collisions_total "); got != float64(st.Collisions) {
		t.Fatalf("malsched_memo_collisions_total reads %v, engine counted %d", got, st.Collisions)
	}
}

// serveBody is the byte-level entry for one /v1/schedule body, a binary
// frame or a JSON body.
func serveBody(s *Server, binary bool, body []byte) (int, []byte) {
	contentType := wire.JSONContentType
	if binary {
		contentType = wire.ContentType
	}
	status, _, out, _, _ := s.Serve(context.Background(), wire.PathSchedule, contentType, body, "test", nil)
	return status, out
}

// serveBinary is the byte-level entry for one binary frame.
func serveBinary(s *Server, frame []byte) (int, []byte) { return serveBody(s, true, frame) }

// encodeBody is a /v1/schedule body of in under opts in either codec, as a
// Go client writes it.
func encodeBody(t *testing.T, binary bool, in *instance.Instance, opts *wire.RequestOptions) []byte {
	t.Helper()
	if binary {
		return wire.AppendScheduleRequest(nil, in, nil, opts)
	}
	body, err := json.Marshal(wire.ScheduleRequest{Instance: mustRaw(t, in), Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// walk walks a body into the frame of its codec — what the byte hit and
// the full path behind it read of it, whichever codec walked it; ok false
// for a body no walk takes. The caller releases the frame.
func walk(binary bool, body []byte) (*wire.Frame, bool) {
	if binary {
		f, err := wire.ReadFrame(body)
		return f, err == nil
	}
	return wire.ReadJSONFrame(body)
}

// byteHitOf runs the byte hit alone on a body, and slowPathOf its codec's
// path without it — the walk's options, the decode from the walk, the
// shared tail; both return what the request would be answered with.
func byteHitOf(s *Server, binary bool, body []byte) ([]byte, bool) {
	f, ok := walk(binary, body)
	if !ok {
		return nil, false
	}
	defer f.Release()
	o, _, _, errInfo := s.frameOptions(f)
	if errInfo != nil {
		return nil, false
	}
	rc := reqCtx{codec: codecLabel(binary), start: time.Now()}
	return s.byteHit(&rc, f, binary, o, nil)
}

func slowPathOf(s *Server, binary bool, body []byte) (int, []byte) {
	f, ok := walk(binary, body)
	if !ok {
		return 0, nil
	}
	defer f.Release()
	o, timeout, lineage, errInfo := s.frameOptions(f)
	if errInfo != nil {
		return http.StatusBadRequest, wire.AppendRefusal(nil, binary, errInfo)
	}
	in, graph, err := f.Decode()
	if err != nil {
		return http.StatusBadRequest, wire.AppendRefusal(nil, binary, &wire.ErrorInfo{Code: wire.CodeBadInstance, Message: err.Error()})
	}
	rc := reqCtx{codec: codecLabel(binary), start: time.Now()}
	out, status, errInfo := s.solveAndEncode(&rc, in, graph, o, timeout, lineage, &f.Prefix, binary, nil)
	if errInfo != nil {
		return status, wire.AppendRefusal(nil, binary, errInfo)
	}
	return status, out
}

func codecLabel(binary bool) string {
	if binary {
		return "binary"
	}
	return "json"
}

// eligible reports whether the byte hit must answer a repeat of the body
// once its entry carries bytes: a body its codec walks, without a graph or
// a row wider than m, whose options name no portfolio, no lineage and no
// trace.
func eligible(binary bool, body []byte) bool {
	f, ok := walk(binary, body)
	if !ok {
		return false
	}
	defer f.Release()
	return !f.Graph && !f.Wide && f.Portfolio == 0 && len(f.Lineage) == 0 && !f.Trace
}

// hitBytesGrid calls yield with a request of every generator family at
// each n×m size, seeds 1 and 2, under the default options and a compact mrt
// request, in both codecs.
func hitBytesGrid(tb testing.TB, sizes [][2]int, yield func(name string, binary bool, body []byte)) {
	families := instance.Families()
	for _, family := range slices.Sorted(maps.Keys(families)) {
		for _, size := range sizes {
			for seed := int64(1); seed <= 2; seed++ {
				in := families[family](seed, size[0], size[1])
				for _, opts := range []*wire.RequestOptions{nil, {Compact: true, Solver: "mrt"}} {
					name := fmt.Sprintf("%s/%dx%d/seed%d/options=%t", family, size[0], size[1], seed, opts != nil)
					yield(name+"/binary", true, wire.AppendScheduleRequest(nil, in, nil, opts))
					body, err := json.Marshal(wire.ScheduleRequest{Instance: mustRaw(tb, in), Options: opts})
					if err != nil {
						tb.Fatal(err)
					}
					yield(name+"/json", false, body)
				}
			}
		}
	}
}

// Every golden family at the golden grid's sizes (n 12 and 40, m 8 and 64)
// holds FuzzHitBytesMatchSlowPath's invariants, under both option sets and
// in both codecs.
func TestHitBytesMatchSlowPathGrid(t *testing.T) {
	hitBytesGrid(t, [][2]int{{12, 8}, {12, 64}, {40, 8}, {40, 64}}, func(name string, binary bool, body []byte) {
		t.Run(name, func(t *testing.T) { checkHitBytes(t, binary, body) })
	})
}

// FuzzHitBytesMatchSlowPath holds the shard's byte hit to the full path of
// either codec (checkHitBytes). Seeded with the grid of
// TestHitBytesMatchSlowPathGrid at sizes of 4 and 6 tasks on 2 and 4
// processors, whose requests solve in microseconds, so the coverage pass
// ends at once and the mutator works from every family, option set and
// codec; with FuzzRouteKeyMatchesDecode's v1 and v2 frames; and with JSON
// bodies of a name encoding/json escapes, a trace and a graph.
func FuzzHitBytesMatchSlowPath(f *testing.F) {
	hitBytesGrid(f, [][2]int{{4, 2}, {4, 4}, {6, 2}, {6, 4}}, func(_ string, binary bool, body []byte) {
		f.Add(binary, body)
	})
	mixed := instance.Mixed(5, 6, 4)
	wide := &instance.Instance{Name: "wide", M: 2, Tasks: instance.Mixed(3, 5, 8).Tasks}
	f.Add(true, wire.AppendScheduleRequest(nil, mixed, nil, nil))
	f.Add(true, wire.AppendScheduleRequest(nil, mixed, precedence.ChainEdges(mixed.N()), &wire.RequestOptions{Solver: "dag", Eps: 0.01}))
	f.Add(true, wire.AppendScheduleRequest(nil, wide, nil, &wire.RequestOptions{Lineage: "chain-7", Portfolio: []string{"mrt", "lpt"}, Compact: true}))
	f.Add(true, wire.AppendScheduleRequest(nil, mixed, [][]int{}, nil))
	f.Add(true, wire.AppendScheduleRequest(nil, mixed, nil, &wire.RequestOptions{Solver: "seq-lpt", Parallelism: 3, TimeoutMS: 5000}))
	for _, c := range jsonHitBodies(f) {
		f.Add(false, c.body)
	}
	f.Fuzz(checkHitBytes)
}

// checkHitBytes holds the shard's byte hit to the full path for one binary
// frame or JSON body. On a fresh server the byte hit declines; once the
// body has been answered twice — a miss, then the verified hit that
// attaches the entry's bytes in its codec — the byte hit either declines or
// writes exactly the bytes the full path writes for the same hit, and it
// does not decline a body the fast path covers. Then a second workload
// forced onto the body's key (forge: same m, n and fingerprint state) takes
// the memo slot over and carries bytes of its own: the body must not be
// answered from them, and the full path must answer it with the bytes of
// its own miss.
func checkHitBytes(t *testing.T, binary bool, body []byte) {
	// The golden grid's sizes at most, and the exhaustive solver on tiny
	// instances only: the property is the bytes, not throughput.
	if w, ok := walk(binary, body); ok {
		m, n := w.M, w.N
		w.Release()
		if m > 64 || n > 40 || n > 6 && bytes.Contains(body, []byte("exact")) {
			return
		}
	}
	s := New(Config{Workers: 1})
	if _, ok := byteHitOf(s, binary, body); ok {
		t.Fatal("the byte hit answered on an empty memo")
	}
	missStatus, miss := serveBody(s, binary, body)
	hitStatus, hit := serveBody(s, binary, body)
	fast, ok := byteHitOf(s, binary, body)
	if ok {
		if hitStatus != http.StatusOK || !bytes.Equal(fast, hit) {
			t.Fatalf("byte hit differs from the verified hit (HTTP %d):\n%q\n%q", hitStatus, fast, hit)
		}
		if _, slow := slowPathOf(s, binary, body); !bytes.Equal(fast, slow) {
			t.Fatalf("byte hit differs from the full path:\n%q\n%q", fast, slow)
		}
	} else if hitStatus == http.StatusOK && eligible(binary, body) {
		t.Fatal("the byte hit declined a repeat it covers")
	}
	if missStatus != http.StatusOK || !eligible(binary, body) {
		return
	}
	var in *instance.Instance
	var ro *wire.RequestOptions
	if binary {
		var err error
		if in, _, ro, err = wire.DecodeScheduleRequest(body); err != nil {
			t.Fatalf("answered 200 but does not decode: %v", err)
		}
	} else {
		// The walk took the body, and encoding/json decodes whatever it
		// takes to the same request (wire.FuzzJSONScanMatchesEncodingJSON).
		req, err := wire.UnmarshalScheduleRequest(body)
		if err != nil || req.InstanceErr != nil {
			t.Fatalf("answered 200 but does not decode: %v, %v", err, req.InstanceErr)
		}
		in, ro = req.Instance, req.Options
	}
	b := forge(in)
	if b == nil {
		return
	}
	forged := encodeBody(t, binary, b, ro)
	wa, _ := walk(binary, body)
	if wb, ok := walk(binary, forged); ok {
		if wa.Prefix != wb.Prefix {
			t.Fatal("the forged body is not on the body's key")
		}
		wb.Release()
	}
	wa.Release()
	s = New(Config{Workers: 1})
	serveBody(s, binary, forged)
	serveBody(s, binary, forged)
	if _, ok := byteHitOf(s, binary, body); ok {
		t.Fatal("the byte hit answered from the forged workload's entry")
	}
	if status, own := serveBody(s, binary, body); status != missStatus || !bytes.Equal(own, miss) {
		t.Fatalf("after the forgery: HTTP %d, bytes\n%q\nwant its own miss\n%q", status, own, miss)
	}
}

// jsonHitBodies are JSON bodies at the edges of the JSON byte hit, in the
// scanner's subset: a name with every character encoding/json escapes for
// HTML, the same workload traced, and the same workload with a graph.
func jsonHitBodies(tb testing.TB) []struct {
	name string
	body []byte
} {
	var compact bytes.Buffer
	if err := json.Compact(&compact, mustRaw(tb, instance.Mixed(6, 8, 4))); err != nil {
		tb.Fatal(err)
	}
	raw := compact.String()
	i := strings.Index(raw, `"name":"`) + len(`"name":"`)
	escaped := raw[:i] + `a<b>&c` + raw[i:]
	chain := `[[1],[2],[3],[4],[5],[6],[7],[]]`
	return []struct {
		name string
		body []byte
	}{
		{"escaped name", []byte(`{"instance":` + escaped + `}`)},
		{"trace", []byte(`{"instance":` + raw + `,"options":{"trace":true}}`)},
		{"graph", []byte(`{"instance":` + raw + `,"graph":` + chain + `,"options":{"solver":"dag"}}`)},
	}
}

// A JSON repeat is a byte hit exactly where the byte hit covers it: a name
// with '<', '>' and '&' gets the full path's bytes, escaped as encoding/json
// escapes them; a traced request and one with a graph always decline, and
// get the full path's answer.
func TestJSONByteHitEdges(t *testing.T) {
	for _, c := range jsonHitBodies(t) {
		name, body := c.name, c.body
		if w, ok := walk(false, body); !ok {
			t.Fatalf("%s: the body is not the scanner's", name)
		} else {
			w.Release()
		}
		s := New(Config{Workers: 1})
		serveBody(s, false, body)
		status, hit := serveBody(s, false, body)
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", name, status, hit)
		}
		fast, ok := byteHitOf(s, false, body)
		if covered := name == "escaped name"; ok != covered {
			t.Fatalf("%s: byte hit answered %v, want %v", name, ok, covered)
		}
		if !ok {
			if status, _ := serveBody(s, false, body); status != http.StatusOK || s.byteHits.Value() != 0 {
				t.Fatalf("%s: HTTP %d, %d byte hits", name, status, s.byteHits.Value())
			}
			continue
		}
		if !bytes.Equal(fast, hit) {
			t.Fatalf("%s: byte hit\n%s\nverified hit\n%s", name, fast, hit)
		}
		if _, slow := slowPathOf(s, false, body); !bytes.Equal(fast, slow) {
			t.Fatalf("%s: byte hit\n%s\nfull path\n%s", name, fast, slow)
		}
		if !bytes.HasPrefix(fast, []byte(`{"name":"a\u003cb\u003e\u0026c`)) {
			t.Fatalf("%s: the name is not escaped as encoding/json escapes it: %s", name, fast)
		}
	}
}

// The byte hit is visible: a repeat binary hit counts in
// malsched_memo_byte_hits_total, in the memo hit counter and in every stage
// histogram, the verify stage included.
func TestByteHitCounted(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	in := instance.Mixed(4, 12, 8)
	for range 3 {
		if status, _, _ := postBinary(t, ts, in, nil); status != http.StatusOK {
			t.Fatalf("HTTP %d", status)
		}
	}
	if st := s.eng.Stats(); st.MemoHits != 2 || st.MemoMisses != 1 || st.Scheduled != 3 {
		t.Fatalf("engine stats %+v, want 1 miss and 2 hits", st)
	}
	_, body := get(t, ts, "/metricsz")
	text := string(body)
	if got := sampleSum(text, "malsched_memo_byte_hits_total "); got != 1 {
		t.Fatalf("malsched_memo_byte_hits_total = %v, want 1", got)
	}
	for _, stage := range []string{"queue", "compile", "solve", "verify", "encode"} {
		if n := sampleSum(text, `malsched_stage_latency_us_count{stage="`+stage+`",solver="mrt",codec="binary"}`); n != 3 {
			t.Errorf("stage %q: %v samples, want 3", stage, n)
		}
	}
	if !strings.Contains(text, `malsched_requests_total{endpoint="schedule",codec="binary",status="200"} 3`) {
		t.Error("request counter missed the byte hit")
	}
}

// Concurrent repeats of one body race the first verified hit that
// attaches the entry's bytes in its codec against the byte hits that read
// them: every answer after the miss is the same bytes, over both codecs
// (the race detector runs this in CI).
func TestByteHitConcurrent(t *testing.T) {
	for _, binary := range []bool{true, false} {
		s := New(Config{Workers: 2, QueueDepth: 64})
		body := encodeBody(t, binary, instance.Mixed(11, 16, 8), nil)
		if status, _ := serveBody(s, binary, body); status != http.StatusOK {
			t.Fatalf("HTTP %d", status)
		}
		const callers, each = 4, 25
		outs := make([][][]byte, callers)
		done := make(chan struct{})
		for c := range outs {
			go func() {
				defer func() { done <- struct{}{} }()
				for range each {
					status, out := serveBody(s, binary, body)
					if status != http.StatusOK {
						t.Errorf("HTTP %d", status)
						return
					}
					outs[c] = append(outs[c], out)
				}
			}()
		}
		for range outs {
			<-done
		}
		want := outs[0][0]
		for c := range outs {
			for i, out := range outs[c] {
				if !bytes.Equal(out, want) {
					t.Fatalf("%s: caller %d, request %d: bytes differ from the first hit's", codecLabel(binary), c, i)
				}
			}
		}
		if s.byteHits.Value() == 0 {
			t.Fatalf("%s: no repeat was a byte hit", codecLabel(binary))
		}
	}
}
