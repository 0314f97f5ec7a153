package wire

import (
	"bytes"
	"errors"
	"testing"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/precedence"
)

// FuzzRouteKeyMatchesDecode fuzzes the parser of untrusted request bytes
// and the decoder that builds from what it proved. Invariants: neither
// wire.RouteKey (ReadFrame: the router's zero-allocation peek, and the
// shard's walk before a byte hit or a decode) nor DecodeScheduleRequest
// panics on any input — Go's own bounds checks in the build never fire; a
// frame the walk refuses, the decode refuses with the same error, and a
// frame the walk accepts never fails the decode on framing; and whenever the
// decode succeeds, the key equals engine.WorkloadFingerprintDAG over the
// decoded (instance, graph) and the lineage is the decoded options' — so
// the router and the shard can never disagree about where a request they
// both accept belongs, nor answer a bad one with different errors. The
// committed seeds include F1 (a rising profile under an unknown solver) and
// F2 (F1 cut by three bytes).
func FuzzRouteKeyMatchesDecode(f *testing.F) {
	mixed := instance.Mixed(5, 6, 4)
	wide := &instance.Instance{Name: "wide", M: 2, Tasks: instance.Mixed(3, 5, 8).Tasks} // profiles truncate to m on decode
	v1 := AppendScheduleRequest(nil, mixed, nil, nil)
	v2 := AppendScheduleRequest(nil, mixed, precedence.ChainEdges(mixed.N()), &RequestOptions{Solver: "dag", Eps: 0.01})
	f.Add(v1)
	f.Add(v2)
	f.Add(AppendScheduleRequest(nil, wide, nil, &RequestOptions{Lineage: "chain-7", Portfolio: []string{"mrt", "lpt"}, Compact: true}))
	f.Add(AppendScheduleRequest(nil, mixed, [][]int{}, nil)) // present but empty graph section
	f.Add(v2[:60])                                           // cut inside a time table
	f.Add(v1[:headerLen])
	f.Add(append(append([]byte(nil), v2...), 0)) // trailing byte
	f.Add([]byte("not a frame"))

	f.Fuzz(func(t *testing.T, data []byte) {
		key, lineage, keyErr := RouteKey(data)
		in, graph, opts, err := DecodeScheduleRequest(data)
		if keyErr != nil {
			if err == nil || err.Error() != keyErr.Error() {
				t.Fatalf("the walk refuses with %v, the decode with %v", keyErr, err)
			}
			return
		}
		if err != nil {
			for _, framing := range []error{ErrTruncated, ErrTooLarge, ErrBadMagic, ErrBadVersion, ErrBadKind} {
				if errors.Is(err, framing) {
					t.Fatalf("the walk accepts a frame the decode refuses on framing: %v", err)
				}
			}
			return // an invalid instance: both tiers answer it from the decode
		}
		if want := engine.WorkloadFingerprintDAG(in, graph); key != want {
			t.Fatalf("RouteKey %#x != WorkloadFingerprintDAG %#x", key, want)
		}
		want := ""
		if opts != nil {
			want = opts.Lineage
		}
		if lineage != want {
			t.Fatalf("RouteKey lineage %q, decoded %q", lineage, want)
		}
	})
}

// FuzzResponseDecode fuzzes the client-side parsers of untrusted response
// bytes. Invariants: neither DecodeScheduleResponse nor DecodeError panics;
// no input decodes as both; and whatever decodes re-encodes to a fixed
// point, encode(decode(encode(decode(x)))) == encode(decode(x)). The check
// compares bytes, not decoded values: a NaN makespan is legal on the wire
// and never DeepEqual to itself. The seeds are under
// testdata/fuzz/FuzzResponseDecode.
func FuzzResponseDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, respErr := DecodeScheduleResponse(data)
		body, errErr := DecodeError(data)
		if respErr == nil && errErr == nil {
			t.Fatal("the bytes decode as both a response and an error")
		}
		if respErr == nil {
			once := AppendScheduleResponse(nil, resp)
			again, err := DecodeScheduleResponse(once)
			if err != nil {
				t.Fatalf("a re-encoded response does not decode: %v", err)
			}
			if twice := AppendScheduleResponse(nil, again); !bytes.Equal(once, twice) {
				t.Fatalf("response re-encoding is not a fixed point:\n%x\n%x", once, twice)
			}
		}
		if errErr == nil {
			once := AppendError(nil, body)
			again, err := DecodeError(once)
			if err != nil {
				t.Fatalf("a re-encoded error does not decode: %v", err)
			}
			if twice := AppendError(nil, again); !bytes.Equal(once, twice) {
				t.Fatalf("error re-encoding is not a fixed point:\n%x\n%x", once, twice)
			}
		}
	})
}
