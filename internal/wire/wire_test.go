package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/task"
)

func testInstance(t *testing.T) *instance.Instance {
	t.Helper()
	in, err := instance.New("wire-rt", 7, []task.Task{
		task.MustNew("a", []float64{9, 5, 4}),
		task.MustNew("", []float64{3}),
		task.MustNew("c", []float64{8, 4.5, 3.25, 2.75}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRequestRoundTrip(t *testing.T) {
	in := testInstance(t)
	for _, opts := range []*RequestOptions{
		nil,
		{},
		{Solver: "mrt", Eps: 1e-4, Compact: true, Parallelism: 8, TimeoutMS: 1500, Lineage: "chain-1"},
		{Portfolio: []string{"mrt", "ltf-rigid"}, TimeoutMS: -3, Parallelism: -1},
	} {
		buf := AppendScheduleRequest(GetBuffer(), in, nil, opts)
		gotIn, gotGraph, gotOpts, err := DecodeScheduleRequest(buf)
		if err != nil {
			t.Fatalf("decode (opts %+v): %v", opts, err)
		}
		if gotGraph != nil {
			t.Fatalf("graphless request decoded graph %v", gotGraph)
		}
		if buf[2] != 1 {
			t.Fatalf("graphless request emitted version %d, want 1", buf[2])
		}
		if gotIn.Name != in.Name || gotIn.M != in.M || gotIn.N() != in.N() {
			t.Fatalf("instance header mismatch: got %q/%d/%d", gotIn.Name, gotIn.M, gotIn.N())
		}
		for i, tk := range in.Tasks {
			if !reflect.DeepEqual(gotIn.Tasks[i].Times(), tk.Times()) || gotIn.Tasks[i].Name != tk.Name {
				t.Fatalf("task %d mismatch", i)
			}
		}
		if !reflect.DeepEqual(gotOpts, opts) {
			t.Fatalf("options mismatch: got %+v want %+v", gotOpts, opts)
		}
		PutBuffer(buf)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &ScheduleResponse{
		Name:       "r",
		Makespan:   math.Nextafter(12.5, 13), // an awkward float must survive bit-exactly
		LowerBound: 7.25,
		Branch:     "small-area",
		Solver:     "mrt",
		Probes:     17, Synthesized: 3,
		FromMemo: true, Shard: 2,
		Plan: PlanJSON{
			Algorithm: "two-shelf",
			Placements: []PlacementJSON{
				{Task: 0, Start: 0, Width: 3, First: 1, ProcSet: []int{1, 2, 5}},
				{Task: 1, Start: 4.75, Width: 1, First: 0},
			},
		},
	}
	buf := AppendScheduleResponse(GetBuffer(), resp)
	got, err := DecodeScheduleResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, resp)
	}
	if math.Float64bits(got.Makespan) != math.Float64bits(resp.Makespan) {
		t.Fatal("makespan bits drifted")
	}
	PutBuffer(buf)
}

func TestEmptyPlacementsDecodeLikeJSON(t *testing.T) {
	// encoding/json decodes "placements": [] to a non-nil empty slice; the
	// binary decoder must match so cross-codec responses are DeepEqual.
	resp := &ScheduleResponse{Plan: PlanJSON{Algorithm: "x", Placements: []PlacementJSON{}}}
	got, err := DecodeScheduleResponse(AppendScheduleResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan.Placements == nil || len(got.Plan.Placements) != 0 {
		t.Fatalf("empty placements decoded as %#v", got.Plan.Placements)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := &ErrorBody{Error: ErrorInfo{Code: CodeQueueFull, Message: "full up"}}
	got, err := DecodeError(AppendError(GetBuffer(), e))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("got %+v want %+v", got, e)
	}
}

// TestKindSniffing: every decoder validates the 4-byte header typed —
// magic, version range and kind — before it reads a body.
func TestKindSniffing(t *testing.T) {
	buf := AppendError(nil, &ErrorBody{Error: ErrorInfo{Code: CodeTimeout}})
	if _, err := DecodeError(buf); err != nil {
		t.Fatalf("valid error frame: %v", err)
	}
	if _, err := DecodeError([]byte{'X', 'Y', 1, KindError}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := DecodeError([]byte{'M', 'S', 99, KindError}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := DecodeError([]byte{'M'}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: %v", err)
	}
	if _, _, _, err := DecodeScheduleRequest(buf); !errors.Is(err, ErrBadKind) {
		t.Fatalf("error frame decoded as a request: %v", err)
	}
}

// TestTruncationNeverPanics walks every prefix of valid messages through
// the decoders: each must fail typed, none may panic or succeed.
func TestTruncationNeverPanics(t *testing.T) {
	in := testInstance(t)
	req := AppendScheduleRequest(nil, in, [][]int{{1}, {2}, nil}, &RequestOptions{Solver: "mrt", Lineage: "l"})
	resp := AppendScheduleResponse(nil, &ScheduleResponse{
		Name: "n", Plan: PlanJSON{Placements: []PlacementJSON{{ProcSet: []int{1}}}},
	})
	for i := 0; i < len(req); i++ {
		if _, _, _, err := DecodeScheduleRequest(req[:i]); err == nil {
			t.Fatalf("request prefix %d decoded", i)
		}
	}
	for i := 0; i < len(resp); i++ {
		if _, err := DecodeScheduleResponse(resp[:i]); err == nil {
			t.Fatalf("response prefix %d decoded", i)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	in := testInstance(t)
	req := append(AppendScheduleRequest(nil, in, nil, nil), 0xFF)
	if _, _, _, err := DecodeScheduleRequest(req); err == nil {
		t.Fatal("trailing garbage decoded")
	}
}

func TestHostileLengthPrefixIsBounded(t *testing.T) {
	// A length prefix claiming 2^40 tasks must fail on the size check, not
	// attempt the allocation.
	b := []byte{magic0, magic1, 1, KindScheduleRequest}
	b = append(b, 0)                                           // name ""
	b = append(b, 3)                                           // m = 3
	b = append(b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1) // huge count
	if _, _, _, err := DecodeScheduleRequest(b); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

// TestDecodeValidatesLikeJSON: both codecs must admit and reject the same
// instances with the same error text, because they share the task/instance
// constructors.
func TestDecodeValidatesLikeJSON(t *testing.T) {
	// Non-monotone profile: time increases with processors.
	b := appendHeader(nil, 1, KindScheduleRequest)
	b = appendString(b, "bad")
	b = append(b, 2) // m
	b = append(b, 1) // one task
	b = appendString(b, "t")
	b = append(b, 2) // two times
	b = appendF64(b, 1)
	b = appendF64(b, 5) // increases: invalid
	b = append(b, 0)    // no options
	_, _, _, err := DecodeScheduleRequest(b)
	if err == nil || !errors.Is(err, task.ErrTimeIncrease) {
		t.Fatalf("non-monotone profile: got %v", err)
	}
	wantJSON := `{"name":"bad","m":2,"tasks":[{"name":"t","times":[1,5]}]}`
	_, jerr := instance.ReadJSON(strings.NewReader(wantJSON))
	if jerr == nil || !errors.Is(jerr, task.ErrTimeIncrease) {
		t.Fatalf("JSON reference: got %v", jerr)
	}
	// Same wrapped shape ("instance: task 0: task: ..."): the suffix after
	// the codec-specific prefix must match.
	if !strings.HasSuffix(err.Error(), strings.TrimPrefix(jerr.Error(), "instance: ")) &&
		err.Error() != jerr.Error() {
		t.Fatalf("error text diverges:\n binary: %s\n json:   %s", err, jerr)
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	b := GetBuffer()
	if len(b) != 0 {
		t.Fatal("pooled buffer not zero length")
	}
	b = append(b, bytes.Repeat([]byte{1}, 100)...)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(b2) != 0 {
		t.Fatal("recycled buffer not reset")
	}
	PutBuffer(b2)
	// Oversized buffers are dropped, not pooled.
	PutBuffer(make([]byte, maxPooledBuf+1))
}

func BenchmarkEncodeResponse(b *testing.B) {
	resp := &ScheduleResponse{
		Name: "bench", Makespan: 10, LowerBound: 6, Branch: "small-area", Solver: "mrt", Probes: 20,
		Plan: PlanJSON{Algorithm: "two-shelf", Placements: make([]PlacementJSON, 16)},
	}
	for i := range resp.Plan.Placements {
		resp.Plan.Placements[i] = PlacementJSON{Task: i, Start: float64(i), Width: 2, First: i % 8}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := AppendScheduleResponse(GetBuffer(), resp)
		PutBuffer(buf)
	}
}
