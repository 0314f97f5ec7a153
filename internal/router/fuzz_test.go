package router

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"malsched/internal/server"
	"malsched/internal/wire"
)

// FuzzRoutedRefusalMatchesShard: the router answers for no request's
// content. Any body, on either endpoint and under either codec's
// Content-Type, that a bare shard refuses with a 4xx gets the same status,
// Content-Type and bytes through msroute. Both shards solve under a
// timeout of a few milliseconds, so a fuzzed request for the exact solver
// cannot stall the smoke. Seeds, under testdata/fuzz/, are the F1 and F2
// frames of TestOneErrorEveryTierAndCodec, F1 plus one byte, and the JSON
// bodies the router once answered for itself: F1's JSON twin, a truncated
// body, an empty batch, a JSON batch under the binary Content-Type, and the
// undecodable and options-before-instance rows of
// TestJSONAnswersMatchEncodingJSON.
func FuzzRoutedRefusalMatchesShard(f *testing.F) {
	cfg := server.Config{Workers: 1, DefaultTimeout: 5 * time.Millisecond, MaxTimeout: 5 * time.Millisecond}
	bare := server.New(cfg)
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: server.New(cfg).Handler()}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(rt.Close)
	f.Fuzz(func(t *testing.T, batch, binary bool, body []byte) {
		path, contentType := wire.PathSchedule, wire.JSONContentType
		if batch {
			path = wire.PathBatch
		}
		if binary {
			contentType = wire.ContentType
		}
		b := post(bare.Handler(), path, contentType, body)
		if b.Code < http.StatusBadRequest || b.Code >= http.StatusInternalServerError {
			return
		}
		sameAnswer(t, fmt.Sprintf("%s under %s, %q", path, contentType, body), post(rt.Handler(), path, contentType, body), b)
	})
}
