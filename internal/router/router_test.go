package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/server"
	"malsched/internal/task"
	"malsched/internal/wire"
)

// newTier builds a router over n in-process msserve shards.
func newTier(t *testing.T, n int, cfg Config) (*Router, []*server.Server) {
	t.Helper()
	shards := make([]*server.Server, n)
	for i := range shards {
		shards[i] = server.New(server.Config{Workers: 2})
		cfg.Backends = append(cfg.Backends, Backend{
			Name:    fmt.Sprintf("shard-%d", i),
			Handler: shards[i].Handler(),
		})
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, shards
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func postBinary(t *testing.T, h http.Handler, in *instance.Instance, opts *wire.RequestOptions) *httptest.ResponseRecorder {
	t.Helper()
	buf := wire.AppendScheduleRequest(nil, in, nil, opts)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(buf))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// post sends body to path on h under a Content-Type header.
func post(h http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// sameAnswer requires a routed response to be a bare shard's: status,
// Content-Type and, for a refusal, body bytes. (A 200's bytes may differ: a
// traced solve reports its own timings.)
func sameAnswer(t *testing.T, what string, routed, bare *httptest.ResponseRecorder) {
	t.Helper()
	rt, bt := routed.Header().Get("Content-Type"), bare.Header().Get("Content-Type")
	sameBytes := bare.Code == http.StatusOK || bytes.Equal(routed.Body.Bytes(), bare.Body.Bytes())
	if routed.Code != bare.Code || rt != bt || !sameBytes {
		t.Errorf("%s: routed HTTP %d %q %q, bare shard HTTP %d %q %q", what, routed.Code, rt, routed.Body.Bytes(), bare.Code, bt, bare.Body.Bytes())
	}
}

func mustRaw(t *testing.T, in *instance.Instance) json.RawMessage {
	t.Helper()
	raw, err := server.EncodeInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// jsonRouteKey is the router's key for the JSON body of a workload.
func jsonRouteKey(t *testing.T, rt *Router, in *instance.Instance, graph [][]int, opts *wire.RequestOptions) (key uint64, pinned bool) {
	t.Helper()
	body, err := json.Marshal(wire.ScheduleRequest{Instance: mustRaw(t, in), Graph: graph, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return rt.routeKey(wire.PathSchedule, false, body)
}

// TestRouteKeyMatchesEngineFingerprint pins wire.RouteKey's off-the-wire
// hash walk to engine.WorkloadFingerprintDAG over the decoded instance —
// including the profile-truncation case — so binary routing and the
// shards' cache keys can never silently drift apart. The JSON body of the
// same workload must key the same, or the two codecs' copies of one
// workload would warm two shards.
func TestRouteKeyMatchesEngineFingerprint(t *testing.T) {
	rt, _ := newTier(t, 1, Config{})
	for name, gen := range instance.Families() {
		for seed := int64(1); seed <= 10; seed++ {
			in := gen(seed, 9, 7)
			buf := wire.AppendScheduleRequest(nil, in, nil, nil)
			key, lineage, err := wire.RouteKey(buf)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, seed, err)
			}
			if lineage != "" {
				t.Fatalf("%s/%d: phantom lineage %q", name, seed, lineage)
			}
			// Decode through the same path the backend uses.
			dec, _, _, err := wire.DecodeScheduleRequest(buf)
			if err != nil {
				t.Fatal(err)
			}
			if want := engine.WorkloadFingerprintDAG(dec, nil); key != want {
				t.Fatalf("%s/%d: RouteKey %x != WorkloadFingerprintDAG %x", name, seed, key, want)
			}
			if jsonKey, pinned := jsonRouteKey(t, rt, in, nil, nil); jsonKey != key || pinned {
				t.Fatalf("%s/%d: JSON key %x (pinned %v) != binary key %x", name, seed, jsonKey, pinned, key)
			}
		}
	}
	// Truncation: a profile wider than m must hash its first m entries
	// only, mirroring instance.New.
	in := instance.Mixed(3, 6, 8)
	wide := &instance.Instance{Name: "wide", M: 2, Tasks: in.Tasks}
	buf := wire.AppendScheduleRequest(nil, wide, nil, &wire.RequestOptions{Lineage: "chain"})
	key, lineage, err := wire.RouteKey(buf)
	if err != nil {
		t.Fatal(err)
	}
	if lineage != "chain" {
		t.Fatalf("lineage = %q", lineage)
	}
	dec, _, _, err := wire.DecodeScheduleRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := engine.WorkloadFingerprintDAG(dec, nil); key != want {
		t.Fatalf("truncated RouteKey %x != WorkloadFingerprintDAG %x", key, want)
	}
	if jsonKey, pinned := jsonRouteKey(t, rt, wide, nil, nil); jsonKey != key || pinned {
		t.Fatalf("truncated JSON key %x (pinned %v) != binary key %x", jsonKey, pinned, key)
	}
	if jsonKey, pinned := jsonRouteKey(t, rt, wide, nil, &wire.RequestOptions{Lineage: "chain"}); jsonKey != hashString("chain") || !pinned {
		t.Fatalf("JSON lineage key %x (pinned %v), want the lineage hash, pinned", jsonKey, pinned)
	}
	if scan, fallback := rt.jsonDecode[wire.PathScan].Value(), rt.jsonDecode[wire.PathFallback].Value(); scan == 0 || fallback != 0 {
		t.Fatalf("generated bodies: %d scanned, %d fell back to encoding/json", scan, fallback)
	}
}

// TestFingerprintSpread checks the routing key over 12 288 distinct
// workloads (the size of the benchmark's cold pool, chosen so every shard
// sees more keys than its caches hold): no two workloads may collide, and
// each backend's share must sit within 10 % of its arc of the ring, which
// is what keeps the emptier shard above its cache size.
func TestFingerprintSpread(t *testing.T) {
	const pool = 12288
	rg, err := newRing([]string{"shard-0", "shard-1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var arc [2]float64 // share of the circle each backend owns
	for i, p := range rg.points {
		prev := rg.points[(i+len(rg.points)-1)%len(rg.points)].hash
		arc[p.backend] += float64(p.hash-prev) / (1 << 64) // wraps correctly in uint64
	}
	seen := make(map[uint64]int64, pool)
	var routed [2]int
	for seed := int64(1); seed <= pool; seed++ {
		key := engine.WorkloadFingerprintDAG(instance.Mixed(seed, 24, 16), nil)
		if other, dup := seen[key]; dup {
			t.Fatalf("workloads %d and %d collide on %#x", other, seed, key)
		}
		seen[key] = seed
		routed[rg.route(key)]++
	}
	for b, got := range routed {
		if want := pool * arc[b]; float64(got) < 0.9*want || float64(got) > 1.1*want {
			t.Errorf("backend %d: %d of %d workloads, want %.0f ± 10%%", b, got, pool, want)
		}
	}
}

// TestRouteKeyMatchesDAGFingerprint extends the pin to wire/v2: a
// graph-carrying request's RouteKey must equal
// engine.WorkloadFingerprintDAG over the decoded (instance, graph) pair,
// and must differ from the graphless fingerprint of the same instance —
// otherwise a DAG would route (and memo-hit) as its independent-task
// projection. The JSON body of the same request keys the same on either
// decode path.
func TestRouteKeyMatchesDAGFingerprint(t *testing.T) {
	rt, _ := newTier(t, 1, Config{})
	for name, gen := range instance.Families() {
		for seed := int64(1); seed <= 5; seed++ {
			in := gen(seed, 8, 6)
			outTree, err := precedence.OutTreeEdges(in.N(), 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, graph := range [][][]int{
				precedence.ChainEdges(in.N()),
				outTree,
				precedence.RandomEdges(seed, in.N(), 0.3),
			} {
				buf := wire.AppendScheduleRequest(nil, in, graph, &wire.RequestOptions{Solver: "dag"})
				key, _, err := wire.RouteKey(buf)
				if err != nil {
					t.Fatalf("%s/%d: %v", name, seed, err)
				}
				dec, decGraph, _, err := wire.DecodeScheduleRequest(buf)
				if err != nil {
					t.Fatal(err)
				}
				if want := engine.WorkloadFingerprintDAG(dec, decGraph); key != want {
					t.Fatalf("%s/%d: RouteKey %x != WorkloadFingerprintDAG %x", name, seed, key, want)
				}
				if indep := engine.WorkloadFingerprintDAG(dec, nil); key == indep {
					t.Fatalf("%s/%d: graph request routed as its independent projection", name, seed)
				}
				// JSON: as the constructors build the graph (a nil list
				// marshals as null, which is encoding/json's to decode) and
				// with every list present, which the scanner takes.
				present := make([][]int, len(graph))
				for i, list := range graph {
					present[i] = append([]int{}, list...)
				}
				for _, g := range [][][]int{graph, present} {
					if jsonKey, _ := jsonRouteKey(t, rt, in, g, &wire.RequestOptions{Solver: "dag"}); jsonKey != key {
						t.Fatalf("%s/%d: JSON key %x != binary key %x", name, seed, jsonKey, key)
					}
				}
			}
		}
	}
}

// TestRouterMatchesSingleProcess is the acceptance bar: the routed tier
// must be semantically invisible. Every response through router+2 shards
// is DeepEqual to the single-process msserve response for the same
// request, modulo the memo-hit flag, which names the cache that answered.
func TestRouterMatchesSingleProcess(t *testing.T) {
	single := server.New(server.Config{Workers: 2})
	rt, _ := newTier(t, 2, Config{})

	fams := instance.Families()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	idx := 0
	for _, name := range names {
		for seed := int64(1); seed <= 4; seed++ {
			in := fams[name](seed*31+int64(idx), 5+idx%9, 4+idx%7)
			idx++
			body := wire.ScheduleRequest{Instance: mustRaw(t, in)}

			recS := postJSON(t, single.Handler(), "/v1/schedule", body)
			recR := postJSON(t, rt.Handler(), "/v1/schedule", body)
			if recS.Code != recR.Code {
				t.Fatalf("%s/%d: status %d (single) != %d (routed): %s", name, seed, recS.Code, recR.Code, recR.Body.Bytes())
			}
			if recS.Code != http.StatusOK {
				continue
			}
			var a, b wire.ScheduleResponse
			if err := json.Unmarshal(recS.Body.Bytes(), &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(recR.Body.Bytes(), &b); err != nil {
				t.Fatal(err)
			}
			a.FromMemo, b.FromMemo = false, false
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%d: routed response differs from single-process:\n single: %+v\n routed: %+v", name, seed, a, b)
			}
		}
	}

	st := rt.Stats()
	if st.Routed == 0 || st.LocalServed+st.Steals != st.Routed {
		t.Fatalf("served %d+%d != routed %d", st.LocalServed, st.Steals, st.Routed)
	}
}

// The routed tier must pass batches through with per-item isolation
// intact.
func TestRouterBatchPassThrough(t *testing.T) {
	rt, _ := newTier(t, 2, Config{})
	good := mustRaw(t, instance.Mixed(1, 6, 4))
	bad := json.RawMessage(`{"name":"poison","m":0,"tasks":[]}`)
	rec := postJSON(t, rt.Handler(), "/v1/batch", wire.BatchRequest{Instances: []json.RawMessage{good, bad, good}})
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp wire.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 || resp.Results[0].Error != nil || resp.Results[1].Error == nil || resp.Results[2].Error != nil {
		t.Fatalf("batch isolation broken: %s", rec.Body.Bytes())
	}
}

// TestBinaryThroughRouter: binary requests route by the peeked
// fingerprint and come back binary, bit-identical to the JSON answer.
func TestBinaryThroughRouter(t *testing.T) {
	rt, _ := newTier(t, 3, Config{})
	for seed := int64(1); seed <= 6; seed++ {
		in := instance.CommHeavy(seed, 8, 6)
		recB := postBinary(t, rt.Handler(), in, nil)
		if recB.Code != http.StatusOK {
			t.Fatalf("binary HTTP %d: %q", recB.Code, recB.Body.Bytes())
		}
		bin, err := wire.DecodeScheduleResponse(recB.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		recJ := postJSON(t, rt.Handler(), "/v1/schedule", wire.ScheduleRequest{Instance: mustRaw(t, in)})
		var js wire.ScheduleResponse
		if err := json.Unmarshal(recJ.Body.Bytes(), &js); err != nil {
			t.Fatal(err)
		}
		bin.FromMemo, js.FromMemo = false, false
		if !reflect.DeepEqual(bin, &js) {
			t.Fatalf("seed %d: codecs diverge through the router", seed)
		}
		// Same workload ⇒ same home shard for both codecs (fingerprint
		// equivalence), unless the JSON one was stolen.
		if recB.Header().Get("X-Msroute-Stolen") == "false" && recJ.Header().Get("X-Msroute-Stolen") == "false" {
			if recB.Header().Get("X-Msroute-Backend") != recJ.Header().Get("X-Msroute-Backend") {
				t.Fatalf("seed %d: codecs routed to different home shards", seed)
			}
		}
	}
	if rt.Stats().BinaryRequests == 0 {
		t.Fatal("binary_requests counter never moved")
	}
}

// Both tiers negotiate the codec by one rule (wire.IsBinary): the binary
// codec on /v1/schedule only, its media type with parameters stripped,
// spaces trimmed, type and subtype compared ignoring case. A binary frame
// sent under each Content-Type gets the same status, response Content-Type
// and bytes from the router as from a bare shard — 200 binary where the
// header names the binary codec, a 400 JSON error where the frame is read as
// JSON — and so does a JSON batch, which is JSON under every header.
func TestCodecNegotiationAgrees(t *testing.T) {
	rt, _ := newTier(t, 1, Config{})
	shard := server.New(server.Config{Workers: 1})
	in := instance.Mixed(4, 6, 4)
	frame := wire.AppendScheduleRequest(nil, in, nil, nil)
	batch, err := json.Marshal(wire.BatchRequest{Instances: []json.RawMessage{mustRaw(t, in)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		contentType string
		binary      bool
	}{
		{wire.ContentType, true},
		{wire.ContentType + "; v=1", true},
		{wire.ContentType + " ; v=1", true},
		{wire.ContentType + ";", true},
		{" " + wire.ContentType, true},
		{wire.ContentType + " ", true},
		{"\t" + wire.ContentType + "\t;charset=x", true},
		{"Application/X-Malsched-Bin", true},
		{"APPLICATION/X-MALSCHED-BIN; V=1", true},
		{"application/json", false},
		{"", false},
		{"application/x-malsched-binary", false},
		{"application/x-malsched", false},
		{"x-malsched-bin", false},
		{"text/plain; " + wire.ContentType, false},
	} {
		want, wantType := http.StatusBadRequest, wire.JSONContentType
		if c.binary {
			want, wantType = http.StatusOK, wire.ContentType
		}
		routed, bare := post(rt.Handler(), wire.PathSchedule, c.contentType, frame), post(shard.Handler(), wire.PathSchedule, c.contentType, frame)
		if got := bare.Header().Get("Content-Type"); bare.Code != want || got != wantType {
			t.Errorf("frame under Content-Type %q: HTTP %d %q, want %d %q", c.contentType, bare.Code, got, want, wantType)
		}
		sameAnswer(t, fmt.Sprintf("frame under Content-Type %q", c.contentType), routed, bare)
		routed, bare = post(rt.Handler(), wire.PathBatch, c.contentType, batch), post(shard.Handler(), wire.PathBatch, c.contentType, batch)
		if got := bare.Header().Get("Content-Type"); bare.Code != http.StatusOK || got != wire.JSONContentType {
			t.Errorf("JSON batch under Content-Type %q: HTTP %d %q, want 200 JSON", c.contentType, bare.Code, got)
		}
		sameAnswer(t, fmt.Sprintf("JSON batch under Content-Type %q", c.contentType), routed, bare)
		if got := wire.IsBinary(wire.PathSchedule, c.contentType); got != c.binary {
			t.Errorf("wire.IsBinary(%q, %q) = %v, want %v", wire.PathSchedule, c.contentType, got, c.binary)
		}
		if wire.IsBinary(wire.PathBatch, c.contentType) {
			t.Errorf("wire.IsBinary(%q, %q) = true", wire.PathBatch, c.contentType)
		}
	}
}

// TestOneErrorEveryTierAndCodec: a bad request gets one answer, on either
// tier and in either codec. Each crafted frame and its JSON twin are posted
// to a router and to a bare shard; every answer must carry the code
// docs/SERVICE.md's "Error precedence" gives it — an undecodable body (for
// the binary codec, a frame the walk refuses) before the options, the
// options before the instance, the instance before the graph — and each
// routed answer must be the bare shard's, byte for byte. The batch rows
// have no frame: /v1/batch speaks JSON only.
func TestOneErrorEveryTierAndCodec(t *testing.T) {
	rt, _ := newTier(t, 1, Config{})
	shard := server.New(server.Config{Workers: 1})
	nope := &wire.RequestOptions{Solver: "nope"}
	// F1 is task a with the rising profile [1, 2] on m = 2 under an unknown
	// solver. The encoder only writes valid tasks, so the frame is encoded
	// falling and its two times are swapped in place.
	times := func(a, b float64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(a)), math.Float64bits(b))
	}
	f1 := bytes.Replace(wire.AppendScheduleRequest(nil, instance.MustNew("f1", 2, []task.Task{task.MustNew("a", []float64{2, 1})}), nil, nope),
		times(2, 1), times(1, 2), 1)
	f1JSON := `{"instance":{"name":"f1","m":2,"tasks":[{"name":"a","times":[1,2]}]},"options":{"solver":"nope"}}`
	twin := func(in *instance.Instance, graph [][]int, opts *wire.RequestOptions) string {
		body, err := json.Marshal(wire.ScheduleRequest{Instance: mustRaw(t, in), Graph: graph, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	noProcs := &instance.Instance{Name: "m0", M: 0, Tasks: instance.Mixed(1, 2, 2).Tasks}
	epsTwo := &wire.RequestOptions{Eps: 2}
	pair := instance.Mixed(1, 2, 2)
	cycle := [][]int{{1}, {0}}
	for _, c := range []struct {
		name, path, json, want string
		frame                  []byte
	}{
		{"F1: rising profile, unknown solver", wire.PathSchedule, f1JSON, wire.CodeUnknownSolver, f1},
		{"F1 and one trailing byte", wire.PathSchedule, f1JSON + "x", wire.CodeBadRequest, append(f1[:len(f1):len(f1)], 0)},
		{"F2: F1 less its last 3 bytes", wire.PathSchedule, f1JSON[:len(f1JSON)-3], wire.CodeBadRequest, f1[:len(f1)-3]},
		{"eps 2 on m = 0", wire.PathSchedule, twin(noProcs, nil, epsTwo), wire.CodeBadOptions, wire.AppendScheduleRequest(nil, noProcs, nil, epsTwo)},
		{"unknown solver, cyclic graph", wire.PathSchedule, twin(pair, cycle, nope), wire.CodeUnknownSolver, wire.AppendScheduleRequest(nil, pair, cycle, nope)},
		{"empty batch", wire.PathBatch, `{"instances":[]}`, wire.CodeBadRequest, nil},
		{"undecodable batch", wire.PathBatch, `{"instances":`, wire.CodeBadRequest, nil},
	} {
		codes := map[string]string{}
		ask := func(codec, contentType string, body []byte, decode func([]byte) (*wire.ErrorBody, error)) {
			routed, bare := post(rt.Handler(), c.path, contentType, body), post(shard.Handler(), c.path, contentType, body)
			sameAnswer(t, c.name+", "+codec, routed, bare)
			for tier, rec := range map[string]*httptest.ResponseRecorder{"router": routed, "shard": bare} {
				eb, err := decode(rec.Body.Bytes())
				if rec.Code != http.StatusBadRequest || err != nil {
					t.Fatalf("%s, %s to the %s: HTTP %d, %v", c.name, codec, tier, rec.Code, err)
				}
				codes[codec+" to the "+tier] = eb.Error.Code
			}
		}
		if c.frame != nil {
			ask("binary", wire.ContentType, c.frame, wire.DecodeError)
		}
		ask("JSON", wire.JSONContentType, []byte(c.json), func(b []byte) (*wire.ErrorBody, error) {
			var eb wire.ErrorBody
			return &eb, json.Unmarshal(b, &eb)
		})
		for path, code := range codes {
			if code != c.want {
				t.Errorf("%s: %s answers %s, want %s (all: %v)", c.name, path, code, c.want, codes)
			}
		}
	}
}

// TestBinaryDAGThroughRouter: wire/v2 graph-carrying requests must ride
// the routed tier and answer byte-for-byte like the JSON DAG path, and
// both codecs must agree on the home shard (edge-aware fingerprint
// equivalence). A hostile graph must come back as a typed binary
// CodeBadGraph error, not a shard crash.
func TestBinaryDAGThroughRouter(t *testing.T) {
	rt, _ := newTier(t, 3, Config{})
	opts := &wire.RequestOptions{Solver: "dag"}
	for seed := int64(1); seed <= 6; seed++ {
		in := instance.Mixed(seed, 9, 6)
		graph := precedence.RandomEdges(seed, in.N(), 0.3)
		buf := wire.AppendScheduleRequest(nil, in, graph, opts)
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(buf))
		req.Header.Set("Content-Type", wire.ContentType)
		recB := httptest.NewRecorder()
		rt.Handler().ServeHTTP(recB, req)
		if recB.Code != http.StatusOK {
			t.Fatalf("binary DAG HTTP %d: %q", recB.Code, recB.Body.Bytes())
		}
		bin, err := wire.DecodeScheduleResponse(recB.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		recJ := postJSON(t, rt.Handler(), "/v1/schedule", wire.ScheduleRequest{
			Instance: mustRaw(t, in), Graph: graph,
			Options: &wire.RequestOptions{Solver: "dag"},
		})
		if recJ.Code != http.StatusOK {
			t.Fatalf("JSON DAG HTTP %d: %q", recJ.Code, recJ.Body.Bytes())
		}
		var js wire.ScheduleResponse
		if err := json.Unmarshal(recJ.Body.Bytes(), &js); err != nil {
			t.Fatal(err)
		}
		bin.FromMemo, js.FromMemo = false, false
		if !reflect.DeepEqual(bin, &js) {
			t.Fatalf("seed %d: DAG codecs diverge through the router", seed)
		}
		if recB.Header().Get("X-Msroute-Stolen") == "false" && recJ.Header().Get("X-Msroute-Stolen") == "false" {
			if recB.Header().Get("X-Msroute-Backend") != recJ.Header().Get("X-Msroute-Backend") {
				t.Fatalf("seed %d: DAG codecs routed to different home shards", seed)
			}
		}
	}
	// Hostile graph: a cycle must be refused typed through the full tier.
	in := instance.Mixed(1, 4, 4)
	cyc := [][]int{{1}, {0}, nil, nil}
	buf := wire.AppendScheduleRequest(nil, in, cyc, opts)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(buf))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("cyclic graph HTTP %d, want 400", rec.Code)
	}
	eb, err := wire.DecodeError(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("cyclic graph error not binary-typed: %v", err)
	}
	if eb.Error.Code != wire.CodeBadGraph {
		t.Fatalf("cyclic graph code %q, want %q", eb.Error.Code, wire.CodeBadGraph)
	}
}

// blockingHandler wraps a handler, holding requests until released; it
// simulates an overloaded shard.
type blockingHandler struct {
	inner   http.Handler
	mu      sync.Mutex
	blocked bool
	release chan struct{}
}

func (b *blockingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	blocked := b.blocked
	release := b.release
	b.mu.Unlock()
	if blocked {
		<-release
	}
	b.inner.ServeHTTP(w, r)
}

// TestWorkStealingDrainsOverloadedShard: with shard A's workers all stuck
// behind a slow backend, shard B's idle workers must claim A's queued
// stealable requests — and the steal counters must say so.
func TestWorkStealingDrainsOverloadedShard(t *testing.T) {
	slowSrv := server.New(server.Config{Workers: 1})
	fastSrv := server.New(server.Config{Workers: 1})
	slow := &blockingHandler{inner: slowSrv.Handler(), blocked: true, release: make(chan struct{})}
	rt, err := New(Config{
		Backends: []Backend{
			{Name: "shard-0", Handler: slow},
			{Name: "shard-1", Handler: fastSrv.Handler()},
		},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Find instances homed on the slow shard.
	var homed []*instance.Instance
	for seed := int64(1); len(homed) < 6 && seed < 200; seed++ {
		in := instance.Mixed(seed, 6, 4)
		buf := wire.AppendScheduleRequest(nil, in, nil, nil)
		key, _, err := wire.RouteKey(buf)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ring.route(key) == 0 {
			homed = append(homed, in)
		}
	}
	if len(homed) < 6 {
		t.Fatal("could not find instances homed on shard-0")
	}

	// One request occupies shard-0's only worker (stuck in the blocked
	// backend); the rest queue and must be stolen by shard-1.
	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, len(homed))
	for i, in := range homed {
		wg.Add(1)
		go func(i int, in *instance.Instance) {
			defer wg.Done()
			results[i] = postBinary(t, rt.Handler(), in, nil)
		}(i, in)
		if i == 0 {
			// Give the first request time to occupy the worker so the
			// rest genuinely queue behind it.
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Shard-0's worker is stuck inside the blocked backend holding one
	// job; shard-1's idle worker must drain the rest via steals. Give it
	// time, then unblock the stuck one so everything completes.
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Steals == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(slow.release)

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("requests stuck: work-stealing never drained the queue")
	}

	stolen := 0
	for i, rec := range results {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %q", i, rec.Code, rec.Body.Bytes())
		}
		if rec.Header().Get("X-Msroute-Stolen") == "true" {
			stolen++
			if got := rec.Header().Get("X-Msroute-Backend"); got != "shard-1" {
				t.Fatalf("stolen request served by %q", got)
			}
		}
	}
	if stolen == 0 {
		t.Fatal("no request was stolen off the overloaded shard")
	}
	st := rt.Stats()
	if st.Steals == 0 {
		t.Fatalf("steal counter is zero: %+v", st)
	}
	var stolenServed uint64
	for _, b := range st.Backends {
		stolenServed += b.StolenServed
		if b.StolenServed != 0 && b.Name != "shard-1" {
			t.Fatalf("steals attributed to the wrong shard: %+v", st.Backends)
		}
	}
	if stolenServed != st.Steals {
		t.Fatalf("per-backend steals %d != total %d", stolenServed, st.Steals)
	}
}

// TestLineageNeverMigratesMidChain: lineage-keyed requests are pinned to
// their home shard even while that shard is overloaded enough that
// fingerprint-routed traffic is being stolen off it.
func TestLineageNeverMigratesMidChain(t *testing.T) {
	rt, _ := newTier(t, 2, Config{Workers: 2})

	const chain = "replan-chain-7"
	var home string
	for i := 0; i < 12; i++ {
		in := instance.Mixed(int64(100+i), 6+i%4, 4)
		rec := postBinary(t, rt.Handler(), in, &wire.RequestOptions{Lineage: chain})
		if rec.Code != http.StatusOK {
			t.Fatalf("chain step %d: HTTP %d: %q", i, rec.Code, rec.Body.Bytes())
		}
		if rec.Header().Get("X-Msroute-Stolen") != "false" {
			t.Fatalf("chain step %d was stolen", i)
		}
		backend := rec.Header().Get("X-Msroute-Backend")
		if home == "" {
			home = backend
		} else if backend != home {
			t.Fatalf("chain step %d migrated %s→%s", i, home, backend)
		}
	}
	st := rt.Stats()
	if st.LineagePinned != 12 {
		t.Fatalf("lineage_pinned = %d, want 12", st.LineagePinned)
	}
}

// TestLineagePinnedUnderStealPressure drives the same property with the
// home shard saturated: stealable traffic drains via steals while every
// lineage request still waits for — and is served by — its home shard.
func TestLineagePinnedUnderStealPressure(t *testing.T) {
	s0 := server.New(server.Config{Workers: 1})
	s1 := server.New(server.Config{Workers: 1})
	slow := &blockingHandler{inner: s0.Handler(), blocked: true, release: make(chan struct{})}
	rt, err := New(Config{
		Backends: []Backend{
			{Name: "shard-0", Handler: slow},
			{Name: "shard-1", Handler: s1.Handler()},
		},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// A lineage whose hash homes on the saturated shard-0.
	lineage := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("chain-%d", i)
		if rt.ring.route(hashString(cand)) == 0 {
			lineage = cand
			break
		}
	}
	if lineage == "" {
		t.Fatal("no lineage homes on shard-0")
	}

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 4)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := instance.Mixed(int64(500+i), 6, 4)
			recs[i] = postBinary(t, rt.Handler(), in, &wire.RequestOptions{Lineage: lineage})
		}(i)
	}
	// Let them all queue against the blocked shard, then release it.
	time.Sleep(100 * time.Millisecond)
	close(slow.release)
	wg.Wait()

	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("pinned request %d: HTTP %d: %q", i, rec.Code, rec.Body.Bytes())
		}
		if rec.Header().Get("X-Msroute-Backend") != "shard-0" || rec.Header().Get("X-Msroute-Stolen") != "false" {
			t.Fatalf("pinned request %d migrated: backend=%s stolen=%s", i,
				rec.Header().Get("X-Msroute-Backend"), rec.Header().Get("X-Msroute-Stolen"))
		}
	}
	if st := rt.Stats(); st.LineagePinned != 4 {
		t.Fatalf("lineage_pinned = %d, want 4", st.LineagePinned)
	}
}

// TestRouterQueueFullSheds: a full home queue sheds with 429 + Retry-After
// in the request's codec instead of queueing unboundedly.
func TestRouterQueueFullSheds(t *testing.T) {
	s0 := server.New(server.Config{})
	slow := &blockingHandler{inner: s0.Handler(), blocked: true, release: make(chan struct{})}
	rt, err := New(Config{
		Backends:   []Backend{{Name: "only", Handler: slow}},
		Workers:    1,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	in := instance.Mixed(1, 6, 4)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one occupies the worker, one fills the queue
		wg.Add(1)
		go func() {
			defer wg.Done()
			postBinary(t, rt.Handler(), in, nil)
		}()
	}
	time.Sleep(100 * time.Millisecond)

	rec := postBinary(t, rt.Handler(), in, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	eb, err := wire.DecodeError(rec.Body.Bytes())
	if err != nil || eb.Error.Code != wire.CodeQueueFull {
		t.Fatalf("shed error: %+v, %v", eb, err)
	}
	if rt.Stats().Rejected == 0 {
		t.Fatal("rejected counter never moved")
	}
	close(slow.release)
	wg.Wait()
}

// TestRouterStealRace hammers a small tier with mixed pinned/stealable
// traffic from many goroutines; run under -race -cpu 1,4 in CI, it is the
// data-race tripwire for the work-stealing path.
func TestRouterStealRace(t *testing.T) {
	rt, _ := newTier(t, 3, Config{Workers: 2, QueueDepth: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				in := instance.Mixed(int64(g*1000+i), 5+i%5, 4)
				var opts *wire.RequestOptions
				if i%3 == 0 {
					opts = &wire.RequestOptions{Lineage: fmt.Sprintf("chain-%d", g%4)}
				}
				var rec *httptest.ResponseRecorder
				if i%2 == 0 {
					rec = postBinary(t, rt.Handler(), in, opts)
				} else {
					body := wire.ScheduleRequest{Instance: mustRaw(t, in), Options: opts}
					rec = postJSON(t, rt.Handler(), "/v1/schedule", body)
				}
				// 429 under pressure is legitimate shedding, anything else
				// non-200 is a bug.
				if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
					t.Errorf("HTTP %d: %q", rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := rt.Stats()
	if st.LocalServed+st.Steals+st.Rejected == 0 {
		t.Fatal("no traffic accounted")
	}
	if st.LocalityHitRate < 0 || st.LocalityHitRate > 1 {
		t.Fatalf("locality hit rate %v out of range", st.LocalityHitRate)
	}
}

// Draining: /healthz flips to 503 and new requests shed typed.
func TestRouterDrain(t *testing.T) {
	rt, _ := newTier(t, 2, Config{})
	rt.StartDrain()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz HTTP %d while draining", rec.Code)
	}
	rec2 := postJSON(t, rt.Handler(), "/v1/schedule", wire.ScheduleRequest{Instance: mustRaw(t, instance.Mixed(1, 5, 4))})
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("schedule HTTP %d while draining", rec2.Code)
	}
	var eb wire.ErrorBody
	if err := json.Unmarshal(rec2.Body.Bytes(), &eb); err != nil || eb.Error.Code != wire.CodeDraining {
		t.Fatalf("draining error: %+v, %v", eb, err)
	}
}

// Both tiers cap a request body at MaxBodyBytes: a body of exactly the cap
// is read whole and answered, and one byte more is the cap's refusal,
// whether the request declares its length or not (-1).
func TestBodyCapEdge(t *testing.T) {
	frame := wire.AppendScheduleRequest(nil, instance.Mixed(9, 6, 4), nil, nil)
	limit := int64(len(frame))
	shard := server.New(server.Config{Workers: 1, MaxBodyBytes: limit})
	rt, err := New(Config{Backends: []Backend{{Name: "s0", Handler: shard.Handler()}}, MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	refusal := fmt.Sprintf("request body exceeds the %d-byte cap", limit)
	over := append(frame[:len(frame):len(frame)], 0)
	for _, tier := range []struct {
		name string
		h    http.Handler
	}{{"shard", shard.Handler()}, {"router", rt.Handler()}} {
		for _, declared := range []bool{true, false} {
			for _, body := range [][]byte{frame, over} {
				req := httptest.NewRequest(http.MethodPost, wire.PathSchedule, bytes.NewReader(body))
				req.Header.Set("Content-Type", wire.ContentType)
				if !declared {
					req.ContentLength = -1
				}
				rec := httptest.NewRecorder()
				tier.h.ServeHTTP(rec, req)
				if len(body) == len(frame) {
					if rec.Code != http.StatusOK {
						t.Errorf("%s, declared %v: a body of exactly the cap got HTTP %d", tier.name, declared, rec.Code)
					}
					continue
				}
				e, err := wire.DecodeError(rec.Body.Bytes())
				if rec.Code != http.StatusBadRequest || err != nil || e.Error.Message != refusal {
					t.Errorf("%s, declared %v: a body one past the cap got HTTP %d, %+v (%v)", tier.name, declared, rec.Code, e, err)
				}
			}
		}
	}
}
