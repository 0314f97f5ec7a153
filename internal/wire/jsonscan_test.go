package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
		{"cut-in-digit-run", `{"instance":{"name":"x","m":2,"tasks":[{"name":"a","times":[2.7182818284`, false},
	}
}

// scanScheduleRequest is the scanner's path alone: ok false means the body
// is not the scanner's.
func scanScheduleRequest(body []byte) (req JSONRequest, ok bool) {
	f, ok := ReadJSONFrame(body)
	if !ok {
		return JSONRequest{}, false
	}
	defer f.Release()
	req.Options = f.request()
	req.Instance, req.Graph, req.InstanceErr = f.Decode()
	return req, true
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
	want, err := UnmarshalScheduleRequest(body)
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

// checkRouteKey: any body the scanner walks fills the layout its binary
// twin's walk fills (sameFrame) — its key, valid instance or not, lineage
// included, is the twin's — and a body either path decodes to a valid
// instance keys like engine.WorkloadFingerprintDAG of either path's decode.
func checkRouteKey(t *testing.T, body []byte) {
	t.Helper()
	var walked uint64
	if f, ok := ReadJSONFrame(body); ok {
		walked = f.RouteKey()
		frame := binaryTwin(f)
		bin, err := ReadFrame(frame)
		if err != nil {
			t.Fatalf("binary twin of a walked body: %v", err)
		}
		sameFrame(t, f, bin)
		bin.Release()
		f.Release()
		if key, _, err := RouteKey(frame); err != nil || key != walked {
			t.Fatalf("JSON key %#x, binary key %#x (%v)", walked, key, err)
		}
	}
	ref, err := UnmarshalScheduleRequest(body)
	req, scanned := scanScheduleRequest(body)
	if !scanned {
		req = ref
	}
	if err != nil && !scanned || req.InstanceErr != nil {
		return
	}
	key := engine.WorkloadFingerprintDAG(req.Instance, req.Graph)
	if err != nil || ref.InstanceErr != nil {
		t.Fatalf("accepted body fails the encoding/json path: %v / %v", err, ref.InstanceErr)
	}
	if want := engine.WorkloadFingerprintDAG(ref.Instance, ref.Graph); key != want {
		t.Fatalf("key %#x, encoding/json path %#x", key, want)
	}
	if scanned && walked != key {
		t.Fatalf("walked key %#x, decoded fingerprint %#x", walked, key)
	}
}

// sameFrame: a walked JSON body and its binary twin fill one layout. They
// agree on the name, m, n, Wide, Graph, every option the binary layout
// carries (Trace is JSON only), the prefix and the route key; each one's
// SameWorkload accepts the other's rows; and both decode to DeepEqual
// instances and graphs, or fail with the same text. Two documented codec
// details differ and are compared as such: a JSON [] successor list decodes
// empty where the binary one decodes nil, and a JSON "portfolio":[] names
// an empty portfolio where the binary one names none.
func sameFrame(t *testing.T, j, b *Frame) {
	t.Helper()
	if !bytes.Equal(j.Name, b.Name) || j.M != b.M || j.N != b.N || j.Wide != b.Wide || j.Graph != b.Graph {
		t.Fatalf("JSON frame %q m=%d n=%d wide=%v graph=%v, binary %q m=%d n=%d wide=%v graph=%v",
			j.Name, j.M, j.N, j.Wide, j.Graph, b.Name, b.M, b.N, b.Wide, b.Graph)
	}
	if j.Options != b.Options || !bytes.Equal(j.Solver, b.Solver) || j.Portfolio != b.Portfolio ||
		math.Float64bits(j.Eps) != math.Float64bits(b.Eps) || j.Compact != b.Compact ||
		j.Parallelism != b.Parallelism || j.TimeoutMS != b.TimeoutMS || !bytes.Equal(j.Lineage, b.Lineage) {
		t.Fatalf("options diverge: JSON frame %+v, binary %+v", j, b)
	}
	if j.Prefix != b.Prefix || j.RouteKey() != b.RouteKey() {
		t.Fatalf("JSON prefix %#x key %#x, binary %#x key %#x", j.Prefix, j.RouteKey(), b.Prefix, b.RouteKey())
	}
	if !j.SameWorkload(rowsOf(b)) || !b.SameWorkload(rowsOf(j)) {
		t.Fatal("the frames' rows differ")
	}
	if !slices.Equal(j.PortfolioNames(), b.PortfolioNames()) {
		t.Fatalf("portfolio: JSON %q, binary %q", j.PortfolioNames(), b.PortfolioNames())
	}
	jin, jg, jerr := j.Decode()
	bin, bg, berr := b.Decode()
	if fmt.Sprint(jerr) != fmt.Sprint(berr) {
		t.Fatalf("decode error: JSON %v, binary %v", jerr, berr)
	}
	for i, list := range jg {
		if list != nil && len(list) == 0 {
			jg[i] = nil
		}
	}
	if !reflect.DeepEqual(jin, bin) || !reflect.DeepEqual(jg, bg) {
		t.Fatalf("decode: JSON %+v %v, binary %+v %v", jin, jg, bin, bg)
	}
}

// rowsOf lays a frame's rows out as instance.Compiled does: row i is
// times[off[i]:off[i+1]].
func rowsOf(f *Frame) (off []int, times []float64) {
	off = []int{0}
	for _, t := range f.tasks {
		for row := f.words[t.lo:t.hi]; len(row) > 0; row = row[8:] {
			times = append(times, math.Float64frombits(binary.LittleEndian.Uint64(row)))
		}
		off = append(off, len(times))
	}
	return off, times
}

// binaryTwin is the binary frame of a walked JSON body: the same words —
// name, m, every task's name and row, the graph, the options — whether or
// not they make a valid instance. A negative m or edge travels as its
// two's-complement uvarint, which both walks fold as the same word.
func binaryTwin(f *Frame) []byte {
	version := byte(1)
	if f.Graph {
		version = 2
	}
	b := appendHeader(nil, version, KindScheduleRequest)
	b = appendString(b, f.Name)
	b = binary.AppendUvarint(b, f.M)
	b = binary.AppendUvarint(b, uint64(f.N))
	for _, t := range f.tasks {
		b = appendString(b, t.name)
		b = binary.AppendUvarint(b, uint64(t.hi-t.lo)/8)
		b = append(b, f.words[t.lo:t.hi]...)
	}
	if f.Graph {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(f.lists)))
		lo := 0
		for _, l := range f.lists {
			b = binary.AppendUvarint(b, uint64(l.end-lo))
			for _, j := range f.edges[lo:l.end] {
				b = binary.AppendUvarint(b, uint64(j))
			}
			lo = l.end
		}
	}
	if !f.Options {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendString(b, f.Solver)
	b = binary.AppendUvarint(b, uint64(len(f.portfolio)))
	for _, name := range f.portfolio {
		b = appendString(b, name)
	}
	b = appendF64(b, f.Eps)
	var flags byte
	if f.Compact {
		flags = 1
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, f.Parallelism)
	b = binary.AppendVarint(b, f.TimeoutMS)
	return appendString(b, f.Lineage)
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
// decoded request must own every byte it keeps, and a released frame, which
// goes back to its own pool, must keep no window of the body it walked.
func TestScanNeverRetainsBody(t *testing.T) {
	for _, seed := range jsonSeeds(t) {
		body := []byte(seed.body)
		if f, ok := ReadJSONFrame(body); ok {
			f.Release()
			if f.words != nil || f.Name != nil || f.Solver != nil || f.Lineage != nil {
				t.Errorf("%s: a released frame keeps a window of the body", seed.name)
			}
			for _, tw := range f.tasks[:cap(f.tasks)] {
				if tw.name != nil {
					t.Errorf("%s: a released frame's scratch keeps a window of the body", seed.name)
				}
			}
			for _, w := range f.portfolio[:cap(f.portfolio)] {
				if w != nil {
					t.Errorf("%s: a released frame's scratch keeps a window of the body", seed.name)
				}
			}
		}
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

// FuzzRouteKeyJSONMatchesDecode: the routing key of any body the scanner
// walks is the key of the same words as a binary frame, invalid instances
// included, and the key of a body that decodes to a valid instance is the
// fingerprint of the decoded request on either path, so the two codecs and
// the two tiers never disagree about where a workload lives.
func FuzzRouteKeyJSONMatchesDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkRouteKey(t, body) })
}

// hotBodies are request bodies of the serving bench's hot-json shape: 24×16
// instances, mixed and comm-heavy alternately, written by WriteJSON inside
// json.Marshal's envelope — and the same instances as binary frames.
func hotBodies(b *testing.B) (jsonBodies, frames [][]byte) {
	for seed := int64(1); seed <= 8; seed++ {
		in := instance.Mixed(seed, 24, 16)
		if seed%2 == 0 {
			in = instance.CommHeavy(seed, 24, 16)
		}
		jsonBodies = append(jsonBodies, []byte(jsonBody(b, in, nil, nil)))
		frames = append(frames, AppendScheduleRequest(nil, in, nil, nil))
	}
	return jsonBodies, frames
}

// BenchmarkDecodeJSONScheduleRequest is the JSON decode both tiers run on
// every JSON request, on the scanner's path: the walk, then the build from
// the walked frame.
func BenchmarkDecodeJSONScheduleRequest(b *testing.B) {
	bodies, _ := hotBodies(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if req, ok := scanScheduleRequest(bodies[i%len(bodies)]); !ok || req.InstanceErr != nil {
			b.Fatal(ok, req.InstanceErr)
		}
		i++
	}
}

// BenchmarkDecodeJSONRequestFallback is the encoding/json path on the same
// bodies: what every JSON request cost before the scanner.
func BenchmarkDecodeJSONRequestFallback(b *testing.B) {
	bodies, _ := hotBodies(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := UnmarshalScheduleRequest(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkReadFrame is the binary codec's walk of the same instances: the
// router's whole parse, and the part of the shard's decode that checks the
// framing.
func BenchmarkReadFrame(b *testing.B) {
	_, frames := hotBodies(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		f, err := ReadFrame(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
		i++
	}
}

// BenchmarkDecodeScheduleRequest is the binary codec's decode of the same
// instances: the walk, then the build from the walked frame.
func BenchmarkDecodeScheduleRequest(b *testing.B) {
	_, frames := hotBodies(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, _, _, err := DecodeScheduleRequest(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
