package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// serveBinary is the byte-level entry for one binary frame.
func serveBinary(s *Server, frame []byte) (int, []byte) {
	status, _, out, _, _ := s.Serve(context.Background(), wire.PathSchedule, wire.ContentType, frame, "test", nil)
	return status, out
}

// byteHitOf runs byteHit alone on a frame, and slowPathOf the binary path
// without it — the frame's options, its decode, the shared tail; both
// return what the request would be answered with.
func byteHitOf(s *Server, frame []byte) ([]byte, bool) {
	f, err := wire.ReadFrame(frame)
	if err != nil {
		return nil, false
	}
	o, _, _, errInfo := s.frameOptions(&f)
	if errInfo != nil {
		return nil, false
	}
	rc := reqCtx{codec: "binary", start: time.Now()}
	return s.byteHit(&rc, &f, o, nil)
}

func slowPathOf(s *Server, frame []byte) (int, []byte) {
	f, err := wire.ReadFrame(frame)
	if err != nil {
		return 0, nil
	}
	o, timeout, lineage, errInfo := s.frameOptions(&f)
	if errInfo != nil {
		return http.StatusBadRequest, wire.AppendRefusal(nil, true, errInfo)
	}
	in, graph, err := f.Decode()
	if err != nil {
		return http.StatusBadRequest, wire.AppendRefusal(nil, true, &wire.ErrorInfo{Code: wire.CodeBadInstance, Message: err.Error()})
	}
	rc := reqCtx{codec: "binary", start: time.Now()}
	out, status, errInfo := s.solveAndEncode(&rc, in, graph, o, timeout, lineage, &f.Prefix, true, nil)
	if errInfo != nil {
		return status, wire.AppendRefusal(nil, true, errInfo)
	}
	return status, out
}

// eligible reports whether byteHit must answer a repeat of the frame once
// its entry carries bytes: a frame it walks, without a graph or a row wider
// than m, whose options name no portfolio and no lineage.
func eligible(frame []byte) bool {
	f, err := wire.ReadFrame(frame)
	return err == nil && !f.Graph && !f.Wide && f.Portfolio == 0 && len(f.Lineage) == 0
}

// FuzzHitBytesMatchSlowPath holds the shard's byte hit to the full binary
// path. Invariants, for any frame: on a fresh server byteHit declines; once
// the frame has been answered twice — a miss, then the verified hit that
// attaches the entry's bytes — byteHit either declines or writes exactly the
// bytes the full path writes for the same hit, and it does not decline a
// frame the fast path covers. Then a second workload forced onto the
// frame's key (forge: same m, n and fingerprint state) takes the memo slot
// over and carries bytes of its own: the frame must not be answered from
// them, and the full path must answer it with the bytes of its own miss.
// Seeded with every golden instance under both golden variants and with
// FuzzRouteKeyMatchesDecode's v1 and v2 frames.
func FuzzHitBytesMatchSlowPath(f *testing.F) {
	for _, gen := range instance.Families() {
		for _, n := range []int{12, 40} {
			for _, m := range []int{8, 64} {
				for seed := int64(1); seed <= 2; seed++ {
					in := gen(seed, n, m)
					f.Add(wire.AppendScheduleRequest(nil, in, nil, nil))
					f.Add(wire.AppendScheduleRequest(nil, in, nil, &wire.RequestOptions{Compact: true, Solver: "mrt"}))
				}
			}
		}
	}
	mixed := instance.Mixed(5, 6, 4)
	wide := &instance.Instance{Name: "wide", M: 2, Tasks: instance.Mixed(3, 5, 8).Tasks}
	f.Add(wire.AppendScheduleRequest(nil, mixed, nil, nil))
	f.Add(wire.AppendScheduleRequest(nil, mixed, precedence.ChainEdges(mixed.N()), &wire.RequestOptions{Solver: "dag", Eps: 0.01}))
	f.Add(wire.AppendScheduleRequest(nil, wide, nil, &wire.RequestOptions{Lineage: "chain-7", Portfolio: []string{"mrt", "lpt"}, Compact: true}))
	f.Add(wire.AppendScheduleRequest(nil, mixed, [][]int{}, nil))
	f.Add(wire.AppendScheduleRequest(nil, mixed, nil, &wire.RequestOptions{Solver: "seq-lpt", Parallelism: 3, TimeoutMS: 5000}))

	f.Fuzz(func(t *testing.T, frame []byte) {
		// The golden grid's sizes at most, and the exhaustive solver on tiny
		// instances only: the property is the bytes, not throughput.
		if w, err := wire.ReadFrame(frame); err == nil && (w.M > 64 || w.N > 40 || w.N > 6 && bytes.Contains(frame, []byte("exact"))) {
			return
		}
		s := New(Config{Workers: 1})
		if _, ok := byteHitOf(s, frame); ok {
			t.Fatal("byteHit answered on an empty memo")
		}
		missStatus, miss := serveBinary(s, frame)
		hitStatus, hit := serveBinary(s, frame)
		fast, ok := byteHitOf(s, frame)
		if ok {
			if hitStatus != http.StatusOK || !bytes.Equal(fast, hit) {
				t.Fatalf("byte hit differs from the verified hit (HTTP %d):\n%x\n%x", hitStatus, fast, hit)
			}
			if _, slow := slowPathOf(s, frame); !bytes.Equal(fast, slow) {
				t.Fatalf("byte hit differs from the full path:\n%x\n%x", fast, slow)
			}
		} else if hitStatus == http.StatusOK && eligible(frame) {
			t.Fatal("byteHit declined a repeat it covers")
		}
		if missStatus != http.StatusOK || !eligible(frame) {
			return
		}
		in, _, ro, err := wire.DecodeScheduleRequest(frame)
		if err != nil {
			t.Fatalf("answered 200 but does not decode: %v", err)
		}
		b := forge(in)
		if b == nil {
			return
		}
		forged := wire.AppendScheduleRequest(nil, b, nil, ro)
		fa, _ := wire.ReadFrame(frame)
		fb, _ := wire.ReadFrame(forged)
		if fa.Prefix != fb.Prefix {
			t.Fatal("the forged frame is not on the frame's key")
		}
		s = New(Config{Workers: 1})
		serveBinary(s, forged)
		serveBinary(s, forged)
		if _, ok := byteHitOf(s, frame); ok {
			t.Fatal("byteHit answered from the forged workload's entry")
		}
		if status, own := serveBinary(s, frame); status != missStatus || !bytes.Equal(own, miss) {
			t.Fatalf("after the forgery: HTTP %d, bytes\n%x\nwant its own miss\n%x", status, own, miss)
		}
	})
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

// Concurrent repeats of one frame race the first verified hit that
// attaches the entry's bytes against the byte hits that read them: every
// answer after the miss is the same bytes (the race detector runs this in
// CI).
func TestByteHitConcurrent(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	frame := wire.AppendScheduleRequest(nil, instance.Mixed(11, 16, 8), nil, nil)
	if status, _ := serveBinary(s, frame); status != http.StatusOK {
		t.Fatalf("HTTP %d", status)
	}
	const callers, each = 4, 25
	outs := make([][][]byte, callers)
	done := make(chan struct{})
	for c := range outs {
		go func() {
			defer func() { done <- struct{}{} }()
			for range each {
				status, out := serveBinary(s, frame)
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
				t.Fatalf("caller %d, request %d: bytes differ from the first hit's", c, i)
			}
		}
	}
	if s.byteHits.Value() == 0 {
		t.Fatal("no repeat was a byte hit")
	}
}
