//go:build !race

package alloctest

import (
	"runtime"
	"runtime/debug"
	"testing"
)

var sink []byte

// failTB records whether Hold failed it.
type failTB struct {
	testing.TB
	failed bool
}

func (*failTB) Helper()                  {}
func (*failTB) Logf(string, ...any)      {}
func (tb *failTB) Errorf(string, ...any) { tb.failed = true }

// One escaping 64-byte slice per call reads 1 allocation and 64 B at one P
// and at eight, under the default GC pace and a small one, and a budget one
// off in either count fails. Hold leaves GOMAXPROCS and the pace as it
// found them.
func TestAllocHold(t *testing.T) {
	escape := func() { sink = make([]byte, 64) }
	for _, procs := range []int{1, 8} {
		for _, pace := range []int{100, 25} {
			prevProcs, prevPace := runtime.GOMAXPROCS(procs), debug.SetGCPercent(pace)
			for _, c := range []struct {
				allocs, bytes uint64
				fails         bool
			}{
				{1, 64, false}, {0, 64, true}, {2, 64, true}, {1, 63, true}, {1, 65, true},
			} {
				var tb failTB
				Hold(&tb, "64-byte slice", c.allocs, escape, c.bytes)
				if tb.failed != c.fails {
					t.Errorf("GOMAXPROCS %d, GOGC %d: budget %d allocs, %d B failed %v, want %v", procs, pace, c.allocs, c.bytes, tb.failed, c.fails)
				}
			}
			if runtime.GOMAXPROCS(prevProcs) != procs || debug.SetGCPercent(prevPace) != pace {
				t.Errorf("GOMAXPROCS %d, GOGC %d: not restored", procs, pace)
			}
		}
	}
	Hold(t, "nothing", 0, func() {}, 0)
}
