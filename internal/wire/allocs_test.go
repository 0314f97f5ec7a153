//go:build !race

// Allocation budgets of the codecs and the buffer pool. The race detector
// instruments allocations (and sync.Pool drops items at random under it),
// so the file is excluded under -race.

package wire

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"malsched/internal/alloctest"
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
	alloctest.Hold(t, "GetBuffer/PutBuffer pair", 0, pair)
}

// Decoding the benchmark's 24×16 JSON body (8.1 KB) through the scanner
// allocates what the decoded instance keeps and nothing else: one string
// for every name, the task slice, one slab for the time tables — exact-size
// copies of the words in the walk's pooled frame, so 3 KB for 384 floats —
// and the instance. The walk itself allocates nothing once its pool is
// warm. The second row writes every time with 20 significant digits, so
// each float takes the strconv.ParseFloat fallback: that costs no
// allocation either.
func TestAllocBudgetJSONScan(t *testing.T) {
	in := instance.Mixed(9, 24, 16)
	for _, row := range []struct {
		name string
		body []byte
	}{
		{"shortest floats", []byte(jsonBody(t, in, nil, nil))},
		{"20-digit floats", longDigitsBody(t, in)},
	} {
		alloctest.Hold(t, "JSON scan, "+row.name, 4, func() {
			if req, ok := scanScheduleRequest(row.body); !ok || req.InstanceErr != nil {
				t.Fatalf("JSON scan, %s: not scanned", row.name)
			}
		}, 4288)
	}
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
	alloctest.Hold(t, "JSON walk", 0, walk)
}

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
// and the options' two, whatever the number of lists.
func TestAllocBudgetGraphDecode(t *testing.T) {
	const n = 16
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
	alloctest.Hold(t, "16-list v2 decode", 8, decode)
}

// A response's processor sets decode into one slab, allocated at the first
// non-empty set: sixteen list-scheduled placements cost the response, its
// four strings, the placements and the slab, whatever the number of sets.
func TestAllocBudgetResponseDecode(t *testing.T) {
	const n = 16
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
	alloctest.Hold(t, "16-placement response decode", 7, decode)
}
