package wire

import (
	"bytes"
	"testing"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/precedence"
)

// FuzzRouteKeyMatchesDecode fuzzes the two parsers of untrusted request
// bytes. Invariants: neither wire.RouteKey (ReadFrame: the router's
// zero-allocation peek, and the shard's walk before a byte hit) nor
// DecodeScheduleRequest (the shard's full decode) panics on any
// input; and whenever the decode succeeds the peek succeeds too, its key
// equals engine.WorkloadFingerprintDAG over the decoded (instance, graph)
// and its lineage is the decoded options' — so the router and the shard can
// never disagree about where a request they both accept belongs.
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
		if err != nil {
			return // rejected by the shard: the router's verdict is moot
		}
		if keyErr != nil {
			t.Fatalf("decode accepts what RouteKey rejects: %v", keyErr)
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
