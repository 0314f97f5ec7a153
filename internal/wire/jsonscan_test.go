package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/precedence"
)

var writeSeeds = flag.Bool("write-seeds", false, "rewrite the committed fuzz corpora of the JSON targets from jsonSeeds")

// jsonSeed is one request body of the seed list the JSON scanner's tests and
// fuzz corpora share; scanned says which path must decode it.
type jsonSeed struct {
	name    string
	body    string
	scanned bool
}

// jsonBody is what a client of this module sends: the instance codec's
// output inside json.Marshal's envelope.
func jsonBody(tb testing.TB, in *instance.Instance, graph [][]int, opts *RequestOptions) string {
	tb.Helper()
	var raw bytes.Buffer
	if err := in.WriteJSON(&raw); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(ScheduleRequest{Instance: raw.Bytes(), Graph: graph, Options: opts})
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

func jsonSeeds(tb testing.TB) []jsonSeed {
	in := instance.Mixed(5, 6, 4)
	chain := precedence.ChainEdges(in.N())
	chain[in.N()-1] = []int{} // an empty list, where ChainEdges leaves a nil one (null on the wire)
	every := &RequestOptions{Solver: "mrt", Portfolio: []string{"mrt", "lpt"}, Eps: 0.01, Compact: true,
		Parallelism: 2, TimeoutMS: 1500, Lineage: "chain-7", Trace: true}
	const tasks = `"tasks":[{"name":"a","times":[4,2.5,2]},{"name":"b","times":[3]}]`
	const tasks4 = `"tasks":[{"name":"a","times":[4,2.5]},{"name":"b","times":[3]},{"name":"c","times":[2,1.5]},{"name":"d","times":[1]}]`
	inst := func(fields string) string { return `{"instance":{` + fields + `}}` }
	return []jsonSeed{
		{"canonical", jsonBody(tb, in, nil, nil), true},
		{"graph", jsonBody(tb, in, chain, &RequestOptions{Solver: "dag"}), true},
		{"graph-null-list", jsonBody(tb, in, precedence.ChainEdges(in.N()), &RequestOptions{Solver: "dag"}), true},
		{"graph-mixed-lists", `{"graph":[[1,2], null ,[3],[]],` + inst(`"m":2,` + tasks4)[1:], true},
		{"every-option", jsonBody(tb, in, nil, every), true},
		{"empty-options-and-graph", `{"options":{},"graph":[],` + inst(`"name":"x","m":2,` + tasks)[1:], true},
		{"m-after-tasks", inst(tasks + `,"m":3,"name":"late"`), true},
		{"whitespace", "\n{ \"instance\" :\t{ \"m\" : 2 ,\r\n" + tasks + " } }\n \t", true},
		{"wide-profile", inst(`"name":"wide","m":1,` + tasks), true},
		{"duplicate-key", inst(`"m":2,"m":3,` + tasks), false},
		{"case-folded-key", inst(`"Name":"x","m":2,` + tasks), false},
		{"unknown-key", inst(`"m":2,"priority":1,` + tasks), false},
		{"escape", inst(`"name":"\u0041","m":2,` + tasks), false},
		{"utf8-name", inst(`"name":"tâche","m":2,` + tasks), false},
		{"float-range", inst(`"m":2,"tasks":[{"name":"a","times":[1e999]}]`), false},
		{"leading-zero", inst(`"m":01,` + tasks), false},
		{"bare-point", inst(`"m":2,"tasks":[{"name":"a","times":[1.]}]`), false},
		{"minus-zero", inst(`"m":2,"tasks":[{"name":"a","times":[-0]}]`), true},
		{"float-m", inst(`"m":16.0,` + tasks), false},
		{"null-tasks", inst(`"m":2,"tasks":null`), false},
		{"no-instance", `{"options":{"solver":"mrt"}}`, false},
		{"empty-times", inst(`"m":2,"tasks":[{"name":"a","times":[]}]`), true},
		{"non-monotone", inst(`"m":2,"tasks":[{"name":"ok","times":[2]},{"name":"t","times":[1,5]}]`), true},
		{"bad-task-and-bad-m", inst(`"m":0,"tasks":[{"name":"t","times":[1,5]}]`), true},
		{"no-procs", inst(`"name":"z",` + tasks), true},
		{"no-tasks", inst(`"name":"z","m":2`), true},
		{"negative-edge", `{"graph":[[-1],[]],` + inst(`"m":2,` + tasks)[1:], true},
		{"float-edge", `{"graph":[[1.0],[]],` + inst(`"m":2,` + tasks)[1:], false},
		{"bom", "\xef\xbb\xbf" + inst(`"m":2,`+tasks), false},
		{"trailing-brace", inst(`"m":2,`+tasks) + "}", false},
		{"trailing-comma", inst(`"m":2,` + tasks + `,`), false},
		{"empty", "", false},
	}
}

// sameInstance compares two decoded instances by bits.
func sameInstance(a, b *instance.Instance) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("instance %v against %v", a, b)
	}
	if a == nil {
		return nil
	}
	if a.Name != b.Name || a.M != b.M || a.N() != b.N() {
		return fmt.Errorf("instance %q m=%d n=%d against %q m=%d n=%d", a.Name, a.M, a.N(), b.Name, b.M, b.N())
	}
	for i, ta := range a.Tasks {
		tb := b.Tasks[i]
		if ta.Name != tb.Name || ta.MaxProcs() != tb.MaxProcs() {
			return fmt.Errorf("task %d: %v against %v", i, ta, tb)
		}
		for p := 1; p <= ta.MaxProcs(); p++ {
			if math.Float64bits(ta.Time(p)) != math.Float64bits(tb.Time(p)) {
				return fmt.Errorf("task %d: t(%d) = %v against %v", i, p, ta.Time(p), tb.Time(p))
			}
		}
	}
	return nil
}

// checkScanMatches is the differential oracle: whatever the scanner accepts
// it decodes exactly as the encoding/json path does — instance, graph and
// options by bits, a held instance error by text. It reports whether the
// scanner took the body.
func checkScanMatches(t *testing.T, body []byte) bool {
	t.Helper()
	got, ok := scanScheduleRequest(body)
	if !ok {
		return false
	}
	want, err := unmarshalScheduleRequest(body)
	if err != nil {
		t.Fatalf("the scanner accepts a body encoding/json refuses: %v", err)
	}
	if (got.InstanceErr == nil) != (want.InstanceErr == nil) ||
		(got.InstanceErr != nil && got.InstanceErr.Error() != want.InstanceErr.Error()) {
		t.Fatalf("instance error diverges:\n scan: %v\n json: %v", got.InstanceErr, want.InstanceErr)
	}
	if err := sameInstance(got.Instance, want.Instance); err != nil {
		t.Fatalf("scan against json: %v", err)
	}
	if !reflect.DeepEqual(got.Graph, want.Graph) {
		t.Fatalf("graph diverges: scan %#v, json %#v", got.Graph, want.Graph)
	}
	if (got.Options == nil) != (want.Options == nil) {
		t.Fatalf("options diverge: scan %+v, json %+v", got.Options, want.Options)
	}
	if got.Options != nil {
		g, w := *got.Options, *want.Options
		if math.Float64bits(g.Eps) != math.Float64bits(w.Eps) {
			t.Fatalf("eps diverges: scan %v, json %v", g.Eps, w.Eps)
		}
		g.Eps, w.Eps = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("options diverge: scan %+v, json %+v", g, w)
		}
	}
	return true
}

// checkRouteKey: a body either path decodes to a valid instance keys like
// engine.WorkloadFingerprintDAG of the other path's decode and like the
// binary frame of the same workload, lineage included.
func checkRouteKey(t *testing.T, body []byte) {
	t.Helper()
	req, _, err := DecodeJSONScheduleRequest(body)
	if err != nil || req.InstanceErr != nil {
		return
	}
	key := engine.WorkloadFingerprintDAG(req.Instance, req.Graph)
	ref, err := unmarshalScheduleRequest(body)
	if err != nil || ref.InstanceErr != nil {
		t.Fatalf("accepted body fails the encoding/json path: %v / %v", err, ref.InstanceErr)
	}
	if want := engine.WorkloadFingerprintDAG(ref.Instance, ref.Graph); key != want {
		t.Fatalf("key %#x, encoding/json path %#x", key, want)
	}
	for _, list := range req.Graph {
		for _, j := range list {
			if j < 0 {
				return // the binary frame has no negative index; ValidateEdges refuses the request anyway
			}
		}
	}
	binKey, lineage, err := RouteKey(AppendScheduleRequest(nil, req.Instance, req.Graph, req.Options))
	if err != nil {
		t.Fatalf("binary frame of an accepted workload: %v", err)
	}
	if binKey != key {
		t.Fatalf("JSON key %#x, binary key %#x", key, binKey)
	}
	if want := lineageOf(req.Options); lineage != want {
		t.Fatalf("binary lineage %q, JSON %q", lineage, want)
	}
}

func lineageOf(o *RequestOptions) string {
	if o == nil {
		return ""
	}
	return o.Lineage
}

// TestJSONScanMatchesEncodingJSON runs the seed list through both oracles
// and pins which path takes each seed, so the differential cannot pass by
// falling back everywhere.
func TestJSONScanMatchesEncodingJSON(t *testing.T) {
	for _, seed := range jsonSeeds(t) {
		t.Run(seed.name, func(t *testing.T) {
			body := []byte(seed.body)
			if got := checkScanMatches(t, body); got != seed.scanned {
				t.Errorf("scanned = %v, want %v", got, seed.scanned)
			}
			checkRouteKey(t, body)
			// The instance-object entry takes what the request entry takes.
			var env ScheduleRequest
			if json.Unmarshal(body, &env) == nil && len(env.Instance) > 0 {
				in, _, err := DecodeJSONInstance(env.Instance)
				ref, refErr := instance.ReadJSON(bytes.NewReader(env.Instance))
				if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
					t.Errorf("instance entry: %v, ReadJSON %v", err, refErr)
				} else if err := sameInstance(in, ref); err != nil {
					t.Errorf("instance entry: %v", err)
				}
			}
		})
		if *writeSeeds {
			entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.body)
			for _, target := range []string{"FuzzJSONScanMatchesEncodingJSON", "FuzzRouteKeyJSONMatchesDecode"} {
				dir := filepath.Join("testdata", "fuzz", target)
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "seed-"+seed.name), []byte(entry), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestUnmarshalBodyTrailingData: only whitespace may follow the value.
func TestUnmarshalBodyTrailingData(t *testing.T) {
	for tail, want := range map[string]error{
		"": nil, "\n \t\r": nil, "}": ErrTrailingData, "]": ErrTrailingData, " x": ErrTrailingData, "{}": ErrTrailingData,
	} {
		var v map[string]int
		if err := UnmarshalBody([]byte(`{"a":1}`+tail), &v); err != want {
			t.Errorf("tail %q: %v, want %v", tail, err, want)
		}
	}
}

// TestScanNeverRetainsBody: request bodies live in pooled buffers, so a
// decoded request must own every byte it keeps.
func TestScanNeverRetainsBody(t *testing.T) {
	for _, seed := range jsonSeeds(t) {
		body := []byte(seed.body)
		req, ok := scanScheduleRequest(body)
		if !ok || req.InstanceErr != nil {
			continue
		}
		ref, _ := scanScheduleRequest([]byte(seed.body))
		for i := range body {
			body[i] = 'x'
		}
		if err := sameInstance(req.Instance, ref.Instance); err != nil {
			t.Errorf("%s: instance moved with the body: %v", seed.name, err)
		}
		if !reflect.DeepEqual(req.Options, ref.Options) || !reflect.DeepEqual(req.Graph, ref.Graph) {
			t.Errorf("%s: options or graph moved with the body", seed.name)
		}
	}
}

// FuzzJSONScanMatchesEncodingJSON: on any bytes the scanner either stands
// aside or agrees with encoding/json by bits (checkScanMatches), so which
// path decodes a body is never observable in the answer.
func FuzzJSONScanMatchesEncodingJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkScanMatches(t, body) })
}

// FuzzRouteKeyJSONMatchesDecode: the routing key of any accepted JSON body
// is the fingerprint of the decoded request on either path and the key of
// the same workload's binary frame, so the two codecs and the two tiers
// never disagree about where a workload lives.
func FuzzRouteKeyJSONMatchesDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkRouteKey(t, body) })
}

func benchBody(b *testing.B) []byte {
	return []byte(jsonBody(b, instance.Mixed(9, 24, 16), nil, nil))
}

func BenchmarkDecodeJSONRequest(b *testing.B) {
	body := benchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, path, err := DecodeJSONScheduleRequest(body); err != nil || path != PathScan {
			b.Fatal(path, err)
		}
	}
}

// BenchmarkDecodeJSONRequestFallback is the encoding/json path on the same
// body: what every JSON request cost before the scanner.
func BenchmarkDecodeJSONRequestFallback(b *testing.B) {
	body := benchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := unmarshalScheduleRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}
