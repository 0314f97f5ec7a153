//go:build !race

// Allocation budgets of the buffer pool. The race detector instruments
// allocations (and sync.Pool drops items at random under it), so the file
// is excluded under -race.

package wire

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"malsched/internal/instance"
)

// A GetBuffer/PutBuffer pair recycles the buffer and the box it travels in:
// nothing is allocated once both pools are warm. Before the boxes were
// recycled every PutBuffer heap-allocated a slice header.
func TestAllocBudgetBufferPool(t *testing.T) {
	pair := func() {
		b := GetBuffer()
		b = append(b, "payload"...)
		PutBuffer(b)
	}
	pair() // warm both pools
	if got := testing.AllocsPerRun(1000, pair); got > 0 {
		t.Errorf("GetBuffer/PutBuffer pair: %.1f allocs per run, budget 0", got)
	}
}

// Decoding the benchmark's 24×16 JSON body (8.1 KB) through the scanner
// allocates what the decoded instance keeps and nothing else: one string
// for every name, the task slice, one slab for the time tables — exact-size
// copies of the words in the walk's pooled frame, so 3 KB for 384 floats —
// and the instance. The walk itself allocates nothing once its pool is
// warm. Reads 4 allocations and 4288 B, the byte budget; encoding/json's
// decode of the same body reads 214 and 85 KB. The second row writes every
// time with 20 significant digits, so each float takes the
// strconv.ParseFloat fallback: that costs no allocation either.
func TestAllocBudgetJSONScan(t *testing.T) {
	const budget, byteBudget, runs = 4, 4288, 2000
	in := instance.Mixed(9, 24, 16)
	for _, row := range []struct {
		name string
		body []byte
	}{
		{"shortest floats", []byte(jsonBody(t, in, nil, nil))},
		{"20-digit floats", longDigitsBody(t, in)},
	} {
		scanned := true
		scan := func() {
			req, ok := scanScheduleRequest(row.body)
			scanned = scanned && ok && req.InstanceErr == nil
		}
		for range warmUp {
			scan()
		}
		allocs, bytes := gcFreeAllocs(runs, scan)
		if !scanned {
			t.Fatalf("JSON scan, %s: not scanned", row.name)
		}
		if allocs > budget {
			t.Errorf("JSON scan, %s: %d allocs per op, budget %d", row.name, allocs, budget)
		}
		if bytes > byteBudget {
			t.Errorf("JSON scan, %s: %d B per op, budget %d", row.name, bytes, byteBudget)
		} else {
			t.Logf("JSON scan, %s: %d allocs, %d B per op (budgets %d, %d)", row.name, allocs, bytes, budget, byteBudget)
		}
	}
}

// gcFreeAllocs reads f's allocations and bytes per call over a fixed count
// of calls on one P with the collector off, as testing.AllocsPerRun counts
// allocations on one P. An average over a benchmark's GC cycles would
// carry each cycle's own runtime work — a sync.Pool re-making its per-P
// arrays, a pooled frame the cycle dropped built again — and a goroutine
// that moves to another P finds its pooled frame in the old P's private
// slot and builds a new one; both grow with GOMAXPROCS and the first with
// GOGC's pace, so the reading would depend on the machine. One call before
// the window re-pins the pools the forced collection emptied.
func gcFreeAllocs(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// The walk alone — ReadJSONFrame, the fold of the route key and Release,
// what the router runs on a JSON schedule body — allocates nothing once
// the frame pool is warm, as RouteKey allocates nothing for a binary frame.
func TestAllocBudgetJSONWalk(t *testing.T) {
	body := []byte(jsonBody(t, instance.Mixed(9, 24, 16), nil, nil))
	walk := func() {
		f, ok := ReadJSONFrame(body)
		if !ok {
			t.Fatal("not scanned")
		}
		f.Release()
	}
	for range warmUp {
		walk()
	}
	if got := testing.AllocsPerRun(200, walk); got > 0 {
		t.Errorf("JSON walk: %.1f allocs per run, budget 0", got)
	}
}

// warmUp runs a measured function before its budget is read: a process's
// first allocations can be small enough for the runtime's tiny allocator,
// whose count lags (obs.TestAllocBudgetRequestID).
const warmUp = 100

// longDigitsBody is in's request body with every time written in 20
// significant digits, the last non-zero: the 17 that round-trip the float,
// then "001". The tail is far below half an ulp, so the body decodes to in.
func longDigitsBody(t *testing.T, in *instance.Instance) []byte {
	type jsonTask struct {
		Name  string        `json:"name"`
		Times []json.Number `json:"times"`
	}
	var tasks []jsonTask
	for _, tk := range in.Tasks {
		jt := jsonTask{Name: tk.Name}
		for _, v := range tk.Times() {
			lit := strconv.FormatFloat(v, 'e', 16, 64)
			e := strings.IndexByte(lit, 'e')
			jt.Times = append(jt.Times, json.Number(lit[:e]+"001"+lit[e:]))
		}
		tasks = append(tasks, jt)
	}
	raw, err := json.Marshal(struct {
		Name  string     `json:"name"`
		M     int        `json:"m"`
		Tasks []jsonTask `json:"tasks"`
	}{in.Name, in.M, tasks})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ScheduleRequest{Instance: raw})
	if err != nil {
		t.Fatal(err)
	}
	req, ok := scanScheduleRequest(body)
	if !ok || req.InstanceErr != nil {
		t.Fatalf("20-digit body: scanned %v, %v", ok, req.InstanceErr)
	}
	if err := sameInstance(req.Instance, in); err != nil {
		t.Fatalf("20-digit body: %v", err)
	}
	return body
}

// A version-2 frame's successor lists decode into one slab: the graph adds
// its outer slice and the edge backing to the instance's four allocations
// and the options' two, whatever the number of lists. Reads 8; 22 when
// every non-empty list was an allocation of its own.
func TestAllocBudgetGraphDecode(t *testing.T) {
	const n, budget = 16, 8
	graph := make([][]int, n)
	for i := range graph {
		for j := i + 1; j <= i+2 && j < n; j++ {
			graph[i] = append(graph[i], j)
		}
	}
	frame := AppendScheduleRequest(nil, instance.Mixed(9, n, 8), graph, &RequestOptions{Solver: "dag"})
	decode := func() {
		if _, got, _, err := DecodeScheduleRequest(frame); err != nil || len(got) != n {
			t.Fatalf("decoded %d lists, err %v", len(got), err)
		}
	}
	if got := testing.AllocsPerRun(100, decode); got > budget {
		t.Errorf("16-list v2 decode: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("16-list v2 decode: %.1f allocs per run (budget %d)", got, budget)
	}
}

// A response's processor sets decode into one slab, allocated at the first
// non-empty set: sixteen list-scheduled placements cost the response, its
// four strings, the placements and the slab, whatever the number of sets.
// Reads 7; 23 when every set was an allocation of its own.
func TestAllocBudgetResponseDecode(t *testing.T) {
	const n, budget = 16, 7
	resp := &ScheduleResponse{
		Name: "dag", Makespan: 12.5, LowerBound: 10, Branch: "dag-list", Solver: "dag", Probes: 3,
		Plan: PlanJSON{Algorithm: "dag-list", Placements: make([]PlacementJSON, n)},
	}
	for i := range resp.Plan.Placements {
		resp.Plan.Placements[i] = PlacementJSON{Task: i, Start: float64(i), Width: 2, First: -1, ProcSet: []int{i % 8, (i + 3) % 8}}
	}
	frame := AppendScheduleResponse(nil, resp)
	decode := func() {
		if got, err := DecodeScheduleResponse(frame); err != nil || len(got.Plan.Placements) != n {
			t.Fatalf("decoded %+v, err %v", got, err)
		}
	}
	if got := testing.AllocsPerRun(100, decode); got > budget {
		t.Errorf("16-placement response decode: %.1f allocs per run, budget %d", got, budget)
	} else {
		t.Logf("16-placement response decode: %.1f allocs per run (budget %d)", got, budget)
	}
}
