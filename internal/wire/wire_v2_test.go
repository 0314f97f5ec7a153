package wire

import (
	"errors"
	"reflect"
	"testing"
)

// TestGraphRequestRoundTrip: a graph-carrying request emits version 2 and
// round-trips the successor lists exactly; the graphless encoding stays
// byte-identical to version 1 (checked in TestRequestRoundTrip).
func TestGraphRequestRoundTrip(t *testing.T) {
	in := testInstance(t)
	for _, graph := range [][][]int{
		{{1}, {2}, nil},    // chain
		{{1, 2}, nil, nil}, // out-tree
		{nil, nil, nil},    // empty DAG (still carried: non-nil)
		{{2}, {2}, nil},    // shared successor
		{{1}, {0}, nil},    // cyclic: the codec carries shape, not semantics
		{{1}, {99}, {3}},   // out-of-range endpoint, same reason
	} {
		buf := AppendScheduleRequest(GetBuffer(), in, graph, &RequestOptions{Solver: "dag"})
		if buf[2] != 2 {
			t.Fatalf("graph request emitted version %d, want 2", buf[2])
		}
		gotIn, gotGraph, gotOpts, err := DecodeScheduleRequest(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if gotIn.Name != in.Name || gotIn.N() != in.N() {
			t.Fatal("instance mismatch")
		}
		if !reflect.DeepEqual(gotGraph, graph) {
			t.Fatalf("graph round trip: got %v want %v", gotGraph, graph)
		}
		if gotOpts == nil || gotOpts.Solver != "dag" {
			t.Fatalf("options mismatch: %+v", gotOpts)
		}
		PutBuffer(buf)
	}
}

// TestV1RequestStillDecodes: the version-1 layout (no graph section) must
// keep decoding unchanged — the hand-built request here is exactly what the
// pre-v2 encoder produced.
func TestV1RequestStillDecodes(t *testing.T) {
	b := appendHeader(nil, 1, KindScheduleRequest)
	b = appendString(b, "v1")
	b = append(b, 2) // m
	b = append(b, 1) // one task
	b = appendString(b, "t")
	b = append(b, 2)
	b = appendF64(b, 5)
	b = appendF64(b, 3)
	b = append(b, 0) // no options
	in, graph, opts, err := DecodeScheduleRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "v1" || in.M != 2 || in.N() != 1 {
		t.Fatalf("v1 instance decoded as %q/%d/%d", in.Name, in.M, in.N())
	}
	if graph != nil || opts != nil {
		t.Fatalf("v1 request decoded graph %v opts %v", graph, opts)
	}
}

// TestV2GraphTruncationNeverPanics walks every prefix of a graph-carrying
// request through the decoder and the router's RouteKey peek: each must
// fail typed, none may panic or succeed.
func TestV2GraphTruncationNeverPanics(t *testing.T) {
	in := testInstance(t)
	req := AppendScheduleRequest(nil, in, [][]int{{1, 2}, {2}, nil}, &RequestOptions{Solver: "dag", Lineage: "l"})
	for i := 0; i < len(req); i++ {
		if _, _, _, err := DecodeScheduleRequest(req[:i]); err == nil {
			t.Fatalf("request prefix %d decoded", i)
		}
		if _, _, err := RouteKey(req[:i]); err == nil {
			t.Fatalf("RouteKey accepted prefix %d", i)
		}
	}
}

// TestHostileGraphCountIsBounded: a graph section claiming 2^40 lists must
// fail on the size check, not attempt the allocation.
func TestHostileGraphCountIsBounded(t *testing.T) {
	b := appendHeader(nil, 2, KindScheduleRequest)
	b = appendString(b, "")
	b = append(b, 2) // m
	b = append(b, 0) // no tasks
	b = append(b, 1) // graph present
	b = append(b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1)
	if _, _, _, err := DecodeScheduleRequest(b); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

// TestUnknownVersionRejected: version 3 does not exist yet; both the
// decoder and the router's key walk must refuse it typed.
func TestUnknownVersionRejected(t *testing.T) {
	req := AppendScheduleRequest(nil, testInstance(t), nil, nil)
	req[2] = 3
	if _, _, _, err := DecodeScheduleRequest(req); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("decode: %v", err)
	}
	if _, _, err := RouteKey(req); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("RouteKey: %v", err)
	}
}
