// Package alloctest is the one allocation meter of the module's tests:
// every allocation gate reads its subject through Hold and holds the
// reading exactly, so a gate fails on a regression and on an improvement
// alike, and a budget moves only in a diff.
package alloctest

import (
	"runtime"
	"runtime/debug"
	"testing"
)

const (
	warm = 500 // calls before the reading
	runs = 200 // calls read

	// Calls is how many times Hold calls its subject: a gate whose every
	// call needs an input of its own (a memo miss, a first hit) builds
	// this many.
	Calls = warm + runs
)

// Hold calls f Calls times and fails tb unless each of the last runs calls
// allocated exactly allocs objects and, when bytes is given, exactly
// bytes[0] bytes; otherwise it logs the reading.
//
// The window is the same for every gate. One P: the subject and any
// goroutine it hands work to share that P's pool slots, where a goroutine
// moved to another P would find its pooled frame in the old P's private
// slot and build a new one. A forced collection opens the window and the
// collector stays off through it, so no cycle's own runtime work — a
// sync.Pool re-making its per-P arrays, a pooled object the cycle dropped
// built again — lands in the count, however often GOGC would have paced
// one. The warm calls run inside the window: they refill the pools the
// forced collection emptied, grow the subject's buffers and let the tiny
// allocator's count catch up. The reading is a fixed count's integer mean,
// so a stray runtime allocation or a few stray bytes over the whole count
// do not show.
func Hold(tb testing.TB, name string, allocs uint64, f func(), bytes ...uint64) {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range warm {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	gotAllocs, gotBytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	switch {
	case gotAllocs != allocs:
		tb.Errorf("%s: %d allocs, %d B per call, budget %d allocs", name, gotAllocs, gotBytes, allocs)
	case len(bytes) > 0 && gotBytes != bytes[0]:
		tb.Errorf("%s: %d allocs, %d B per call, budget %d B", name, gotAllocs, gotBytes, bytes[0])
	default:
		tb.Logf("%s: %d allocs, %d B per call", name, gotAllocs, gotBytes)
	}
}
