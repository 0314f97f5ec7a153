// Command msload is the scheduling service's end-to-end differential
// oracle: a deterministic seeded load generator that replays workloads from
// the internal/instance families against a running msserve and asserts that
// every response is bit-identical to scheduling the same instance
// in-process — same makespan and lower-bound bits, same branch, solver,
// probe count and placements. Any divergence is a bug in the service
// plumbing (codec, sharding, memoisation), never an acceptable drift.
//
// Usage:
//
//	msload [-addr http://127.0.0.1:8080] [-seed 1] [-n 200] [-batch 0]
//	       [-families mixed,random-monotone,comm-heavy,wide-parallel,powerlaw-0.7]
//	       [-tasks 18] [-m 16] [-solver name] [-eps 0]
//	       [-codec json] [-compact] [-v]
//
// The workload is a pure function of -seed/-n/-families/-tasks/-m, so a
// reported divergence is replayable by rerunning the same invocation.
// -batch k > 1 sends /v1/batch requests of k instances instead of single
// /v1/schedule calls, exercising the per-item path. -codec binary sends
// each replay over the compact binary codec AND over JSON, and asserts the
// two responses are byte-equal after canonicalisation (from_memo cleared,
// both re-marshalled as JSON) on top of the usual in-process comparison —
// the cross-codec oracle for the wire format. Exits non-zero on any
// mismatch or transport failure and prints a one-line verdict:
//
//	msload: 0 mismatches across 200 requests (seed 1)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"malsched"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/server"
	"malsched/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msload: ")
	addr := flag.String("addr", "http://127.0.0.1:8080", "msserve base URL")
	seed := flag.Int64("seed", 1, "workload seed (the replay key)")
	n := flag.Int("n", 200, "number of instances to replay")
	batch := flag.Int("batch", 0, "≥ 2 sends /v1/batch requests of this size; else /v1/schedule")
	famFlag := flag.String("families", "", "comma-separated family list (default: all)")
	maxTasks := flag.Int("tasks", 18, "max tasks per instance")
	maxM := flag.Int("m", 16, "max processors per instance")
	solverName := flag.String("solver", "", "registered solver for every request (default mrt)")
	eps := flag.Float64("eps", 0, "search tolerance (0 = default)")
	codec := flag.String("codec", "json", "request codec: json, or binary (cross-codec byte-equality oracle)")
	compact := flag.Bool("compact", false, "left-shift final schedules")
	dag := flag.Bool("dag", false, "attach a precedence DAG to every request (rotating chain/out-tree/random shapes; default solver becomes dag)")
	verbose := flag.Bool("v", false, "log every request")
	flag.Parse()

	fams := instance.Families()
	var famNames []string
	if *famFlag == "" {
		for name := range fams {
			famNames = append(famNames, name)
		}
		sort.Strings(famNames)
	} else {
		for _, name := range strings.Split(*famFlag, ",") {
			name = strings.TrimSpace(name)
			if fams[name] == nil {
				log.Fatalf("unknown family %q", name)
			}
			famNames = append(famNames, name)
		}
	}
	if *maxTasks < 2 || *maxM < 2 {
		log.Fatal("-tasks and -m must be ≥ 2")
	}
	switch *codec {
	case "json", "binary":
	default:
		log.Fatalf("unknown codec %q (want json or binary)", *codec)
	}
	if *codec == "binary" && *batch >= 2 {
		log.Fatal("-codec binary supports /v1/schedule only; drop -batch")
	}
	if *dag {
		if *batch >= 2 {
			log.Fatal("-dag supports /v1/schedule only (the batch path carries no graph); drop -batch")
		}
		if *solverName == "" {
			*solverName = "dag"
		}
	}

	opts := &wire.RequestOptions{
		Solver:  *solverName,
		Eps:     *eps,
		Compact: *compact,
	}
	local := &malsched.Options{
		Solver:  *solverName,
		Eps:     *eps,
		Compact: *compact,
	}

	ld := &loader{
		client:  &http.Client{Timeout: 120 * time.Second},
		base:    strings.TrimRight(*addr, "/"),
		opts:    opts,
		local:   local,
		binary:  *codec == "binary",
		verbose: *verbose,
	}

	// The workload is a pure function of the flags: family round-robin,
	// sizes and seeds derived from the request index.
	reqs := make([]replay, *n)
	for i := range reqs {
		family := famNames[i%len(famNames)]
		nT := 2 + (i*5)%(*maxTasks-1)
		m := 2 + (i*3)%(*maxM-1)
		in := fams[family](*seed*1_000_003+int64(i), nT, m)
		raw, err := server.EncodeInstance(in)
		if err != nil {
			log.Fatalf("encoding %s: %v", in.Name, err)
		}
		// Decode the encoded bytes back so the local reference sees exactly
		// the instance the server will decode — the comparison then tests
		// the service, not the codec round-trip.
		canonical, err := server.DecodeInstance(raw)
		if err != nil {
			log.Fatalf("decoding %s: %v", in.Name, err)
		}
		reqs[i] = replay{index: i, raw: raw, in: canonical}
		if *dag {
			// DAG shapes rotate with the index and are pure functions of
			// (seed, index, n), so a divergence stays replayable.
			switch i % 3 {
			case 0:
				reqs[i].graph = malsched.ChainEdges(canonical.N())
			case 1:
				g, err := malsched.OutTreeEdges(canonical.N(), 2)
				if err != nil {
					log.Fatalf("building out-tree for %s: %v", in.Name, err)
				}
				reqs[i].graph = g
			default:
				reqs[i].graph = precedence.RandomEdges(*seed*1_000_003+int64(i), canonical.N(), 0.3)
			}
		}
	}

	if *batch >= 2 {
		for lo := 0; lo < len(reqs); lo += *batch {
			hi := lo + *batch
			if hi > len(reqs) {
				hi = len(reqs)
			}
			ld.replayBatch(reqs[lo:hi])
		}
	} else {
		for i := range reqs {
			ld.replaySingle(&reqs[i])
		}
	}

	fmt.Printf("msload: %d mismatches across %d requests (seed %d)\n", ld.mismatches, len(reqs), *seed)
	if ld.mismatches > 0 {
		os.Exit(1)
	}
}

// replay is one instance to send plus its canonical in-memory form and the
// precedence DAG it carries (nil without -dag).
type replay struct {
	index int
	raw   json.RawMessage
	in    *malsched.Instance
	graph [][]int
}

type loader struct {
	client  *http.Client
	base    string
	opts    *wire.RequestOptions
	local   *malsched.Options
	binary  bool
	verbose bool

	mismatches int
}

func (l *loader) mismatch(r *replay, format string, args ...any) {
	l.mismatches++
	log.Printf("MISMATCH [%d] %s: %s", r.index, r.in.Name, fmt.Sprintf(format, args...))
}

// post sends one JSON request and decodes the response body. Admission
// shedding is not a pipeline divergence: 429 (queue full) is retried with
// backoff, and 503 (draining) aborts the run as a transport-level failure
// — neither may ever be reported as a differential mismatch.
func (l *loader) post(path string, body any) (int, []byte) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatalf("marshaling request: %v", err)
	}
	return l.postRaw(path, "application/json", buf)
}

func (l *loader) postRaw(path, contentType string, buf []byte) (int, []byte) {
	const retries = 60
	for attempt := 0; ; attempt++ {
		resp, err := l.client.Post(l.base+path, contentType, bytes.NewReader(buf))
		if err != nil {
			log.Fatalf("POST %s: %v (is msserve running?)", path, err)
		}
		var out bytes.Buffer
		_, readErr := out.ReadFrom(resp.Body)
		resp.Body.Close()
		if readErr != nil {
			log.Fatalf("reading response: %v", readErr)
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			if attempt >= retries {
				log.Fatalf("POST %s: still shed (429) after %d retries; target is overloaded", path, retries)
			}
			time.Sleep(250 * time.Millisecond)
			continue
		case http.StatusServiceUnavailable:
			log.Fatalf("POST %s: target is draining (503): %s", path, out.Bytes())
		}
		return resp.StatusCode, out.Bytes()
	}
}

func (l *loader) replaySingle(r *replay) {
	status, body := l.post("/v1/schedule", wire.ScheduleRequest{Instance: r.raw, Graph: r.graph, Options: l.opts})
	l.compare(r, status, body)
	if l.binary {
		l.replayBinary(r, status, body)
	}
}

// replayBinary re-sends r over the binary codec and asserts the response
// is byte-equal to the JSON one after canonicalisation: from_memo is
// cleared (the second request legitimately hits the memo the first one
// warmed) and both sides are re-marshalled as JSON so the comparison is
// over semantics-carrying bytes, not framing.
func (l *loader) replayBinary(r *replay, jsonStatus int, jsonBody []byte) {
	req := wire.AppendScheduleRequest(nil, r.in, r.graph, l.opts)
	status, body := l.postRaw("/v1/schedule", wire.ContentType, req)
	if status != jsonStatus {
		l.mismatch(r, "binary HTTP %d != json HTTP %d", status, jsonStatus)
		return
	}
	if status != http.StatusOK {
		eb, err := wire.DecodeError(body)
		if err != nil {
			l.mismatch(r, "undecodable binary error: %v", err)
			return
		}
		var jb wire.ErrorBody
		_ = json.Unmarshal(jsonBody, &jb)
		if eb.Error.Code != jb.Error.Code {
			l.mismatch(r, "binary error code %q != json %q", eb.Error.Code, jb.Error.Code)
		}
		return
	}
	bin, err := wire.DecodeScheduleResponse(body)
	if err != nil {
		l.mismatch(r, "undecodable binary response: %v", err)
		return
	}
	var js wire.ScheduleResponse
	if err := json.Unmarshal(jsonBody, &js); err != nil {
		l.mismatch(r, "undecodable json response: %v", err)
		return
	}
	bin.FromMemo, js.FromMemo = false, false
	a, err := json.Marshal(bin)
	if err != nil {
		log.Fatalf("canonicalising binary response: %v", err)
	}
	b, err := json.Marshal(&js)
	if err != nil {
		log.Fatalf("canonicalising json response: %v", err)
	}
	if !bytes.Equal(a, b) {
		l.mismatch(r, "binary response diverges from json after canonicalisation:\n binary: %s\n json:   %s", a, b)
	}
}

func (l *loader) replayBatch(rs []replay) {
	raws := make([]json.RawMessage, len(rs))
	for i := range rs {
		raws[i] = rs[i].raw
	}
	status, body := l.post("/v1/batch", wire.BatchRequest{Instances: raws, Options: l.opts})
	if status != http.StatusOK {
		for i := range rs {
			l.mismatch(&rs[i], "batch request failed: HTTP %d: %s", status, body)
		}
		return
	}
	var resp wire.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != len(rs) {
		for i := range rs {
			l.mismatch(&rs[i], "undecodable batch response (%d results, err %v)", len(resp.Results), err)
		}
		return
	}
	for i := range rs {
		item := resp.Results[i]
		if item.Error != nil {
			l.compareError(&rs[i], item.Error.Code)
			continue
		}
		l.compareResult(&rs[i], item.Result)
	}
}

// compare checks a /v1/schedule response against the in-process pipeline.
func (l *loader) compare(r *replay, status int, body []byte) {
	if status != http.StatusOK {
		var eb wire.ErrorBody
		_ = json.Unmarshal(body, &eb)
		l.compareError(r, eb.Error.Code)
		return
	}
	var resp wire.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		l.mismatch(r, "undecodable response: %v", err)
		return
	}
	l.compareResult(r, &resp)
}

// localOpts is the in-process reference configuration for one replay: the
// shared options plus the replay's own DAG.
func (l *loader) localOpts(r *replay) *malsched.Options {
	if r.graph == nil {
		return l.local
	}
	o := *l.local
	o.Edges = r.graph
	return &o
}

// compareError handles the rare case where the reference pipeline itself
// fails (e.g. a solver not applicable to the instance): then the service
// must fail too, with a typed code.
func (l *loader) compareError(r *replay, code string) {
	if _, err := malsched.Schedule(r.in, l.localOpts(r)); err == nil {
		l.mismatch(r, "server errored (%s) but in-process Schedule succeeds", code)
	} else if l.verbose {
		log.Printf("[%d] %s: both sides error (%s)", r.index, r.in.Name, code)
	}
}

func (l *loader) compareResult(r *replay, got *wire.ScheduleResponse) {
	want, err := malsched.Schedule(r.in, l.localOpts(r))
	if err != nil {
		l.mismatch(r, "server succeeded but in-process Schedule fails: %v", err)
		return
	}
	if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
		l.mismatch(r, "makespan %v != in-process %v", got.Makespan, want.Makespan)
		return
	}
	if math.Float64bits(got.LowerBound) != math.Float64bits(want.LowerBound) {
		l.mismatch(r, "lower bound %v != in-process %v", got.LowerBound, want.LowerBound)
		return
	}
	if got.Branch != want.Branch || got.Solver != want.Solver {
		l.mismatch(r, "provenance %s/%s != in-process %s/%s", got.Branch, got.Solver, want.Branch, want.Solver)
		return
	}
	if got.Probes != want.Probes {
		l.mismatch(r, "probes %d != in-process %d", got.Probes, want.Probes)
		return
	}
	if got.Plan.Algorithm != want.Plan.Algorithm {
		l.mismatch(r, "plan algorithm %q != %q", got.Plan.Algorithm, want.Plan.Algorithm)
		return
	}
	if !reflect.DeepEqual(got.Plan.Placements, want.Plan.Placements) {
		l.mismatch(r, "placements differ")
		return
	}
	if l.verbose {
		log.Printf("[%d] %s: ok (makespan %.6g, memo %v)",
			r.index, r.in.Name, got.Makespan, got.FromMemo)
	}
}
