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
// mismatch or transport failure and prints a one-line verdict, which also
// says how many of the answers the server reported as memo hits (a replay
// against a server that has seen the workload answers all of them so):
//
//	msload: 0 mismatches across 200 requests (seed 1), 0 of 200 answers from the memo
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"net/http"
	"os"
	"reflect"
	"slices"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run replays the workload the flags in args describe and prints the
// verdict line to stdout. A mismatch is logged as it is found; the run
// fails after the last replay if there was any, and at once on a bad
// option or a transport failure.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("msload", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "msserve base URL")
	seed := fs.Int64("seed", 1, "workload seed (the replay key)")
	n := fs.Int("n", 200, "number of instances to replay")
	batch := fs.Int("batch", 0, "≥ 2 sends /v1/batch requests of this size; else /v1/schedule")
	famFlag := fs.String("families", "", "comma-separated family list (default: all)")
	maxTasks := fs.Int("tasks", 18, "max tasks per instance")
	maxM := fs.Int("m", 16, "max processors per instance")
	solverName := fs.String("solver", "", "registered solver for every request (default mrt)")
	eps := fs.Float64("eps", 0, "search tolerance (0 = default)")
	codec := fs.String("codec", "json", "request codec: json, or binary (cross-codec byte-equality oracle)")
	compact := fs.Bool("compact", false, "left-shift final schedules")
	dag := fs.Bool("dag", false, "attach a precedence DAG to every request (rotating chain/out-tree/random shapes; default solver becomes dag)")
	verbose := fs.Bool("v", false, "log every request")
	fs.Parse(args)

	fams := instance.Families()
	famNames := slices.Sorted(maps.Keys(fams))
	if *famFlag != "" {
		famNames = strings.Split(*famFlag, ",")
		for i := range famNames {
			if famNames[i] = strings.TrimSpace(famNames[i]); fams[famNames[i]] == nil {
				return fmt.Errorf("unknown family %q", famNames[i])
			}
		}
	}
	if *maxTasks < 2 || *maxM < 2 {
		return errors.New("-tasks and -m must be ≥ 2")
	}
	if *codec != "json" && *codec != "binary" {
		return fmt.Errorf("unknown codec %q (want json or binary)", *codec)
	}
	if *codec == "binary" && *batch >= 2 {
		return errors.New("-codec binary supports /v1/schedule only; drop -batch")
	}
	if *dag {
		if *batch >= 2 {
			return errors.New("-dag supports /v1/schedule only (the batch path carries no graph); drop -batch")
		}
		if *solverName == "" {
			*solverName = "dag"
		}
	}

	ld := &loader{
		client:  &http.Client{Timeout: 120 * time.Second},
		base:    strings.TrimRight(*addr, "/"),
		opts:    &wire.RequestOptions{Solver: *solverName, Eps: *eps, Compact: *compact},
		local:   &malsched.Options{Solver: *solverName, Eps: *eps, Compact: *compact},
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
			return fmt.Errorf("encoding %s: %w", in.Name, err)
		}
		// Decode the encoded bytes back so the local reference sees exactly
		// the instance the server will decode — the comparison then tests
		// the service, not the codec round-trip.
		canonical, err := server.DecodeInstance(raw)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", in.Name, err)
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
					return fmt.Errorf("building out-tree for %s: %w", in.Name, err)
				}
				reqs[i].graph = g
			default:
				reqs[i].graph = precedence.RandomEdges(*seed*1_000_003+int64(i), canonical.N(), 0.3)
			}
		}
	}

	if *batch >= 2 {
		for lo := 0; lo < len(reqs); lo += *batch {
			if err := ld.replayBatch(reqs[lo:min(lo+*batch, len(reqs))]); err != nil {
				return err
			}
		}
	} else {
		for i := range reqs {
			if err := ld.replaySingle(&reqs[i]); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(stdout, "msload: %d mismatches across %d requests (seed %d), %d of %d answers from the memo\n",
		ld.mismatches, len(reqs), *seed, ld.fromMemo, ld.answers)
	if ld.mismatches > 0 {
		return fmt.Errorf("%d mismatches", ld.mismatches)
	}
	return nil
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
	// answers counts the successful responses checked, fromMemo those of
	// them that reported a memo hit.
	answers, fromMemo int
}

// answered counts one successful response.
func (l *loader) answered(fromMemo bool) {
	l.answers++
	if fromMemo {
		l.fromMemo++
	}
}

func (l *loader) mismatch(r *replay, format string, args ...any) {
	l.mismatches++
	log.Printf("MISMATCH [%d] %s: %s", r.index, r.in.Name, fmt.Sprintf(format, args...))
}

// post sends one JSON request and decodes the response body. Admission
// shedding is not a pipeline divergence: 429 (queue full) is retried with
// backoff, and 503 (draining) aborts the run as a transport-level failure
// — neither may ever be reported as a differential mismatch.
func (l *loader) post(path string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, fmt.Errorf("marshaling request: %w", err)
	}
	return l.postRaw(path, "application/json", buf)
}

func (l *loader) postRaw(path, contentType string, buf []byte) (int, []byte, error) {
	const retries = 60
	for attempt := 0; ; attempt++ {
		resp, err := l.client.Post(l.base+path, contentType, bytes.NewReader(buf))
		if err != nil {
			return 0, nil, fmt.Errorf("POST %s: %w (is msserve running?)", path, err)
		}
		var out bytes.Buffer
		_, readErr := out.ReadFrom(resp.Body)
		resp.Body.Close()
		if readErr != nil {
			return 0, nil, fmt.Errorf("reading response: %w", readErr)
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			if attempt >= retries {
				return 0, nil, fmt.Errorf("POST %s: still shed (429) after %d retries; target is overloaded", path, retries)
			}
			time.Sleep(250 * time.Millisecond)
			continue
		case http.StatusServiceUnavailable:
			return 0, nil, fmt.Errorf("POST %s: target is draining (503): %s", path, out.Bytes())
		}
		return resp.StatusCode, out.Bytes(), nil
	}
}

func (l *loader) replaySingle(r *replay) error {
	status, body, err := l.post("/v1/schedule", wire.ScheduleRequest{Instance: r.raw, Graph: r.graph, Options: l.opts})
	if err != nil {
		return err
	}
	l.compare(r, status, body)
	if l.binary {
		return l.replayBinary(r, status, body)
	}
	return nil
}

// replayBinary re-sends r over the binary codec and asserts the response
// is byte-equal to the JSON one after canonicalisation: from_memo is
// cleared (the second request legitimately hits the memo the first one
// warmed) and both sides are re-marshalled as JSON so the comparison is
// over semantics-carrying bytes, not framing.
func (l *loader) replayBinary(r *replay, jsonStatus int, jsonBody []byte) error {
	req := wire.AppendScheduleRequest(nil, r.in, r.graph, l.opts)
	status, body, err := l.postRaw("/v1/schedule", wire.ContentType, req)
	if err != nil {
		return err
	}
	if status != jsonStatus {
		l.mismatch(r, "binary HTTP %d != json HTTP %d", status, jsonStatus)
		return nil
	}
	if status != http.StatusOK {
		eb, err := wire.DecodeError(body)
		if err != nil {
			l.mismatch(r, "undecodable binary error: %v", err)
			return nil
		}
		var jb wire.ErrorBody
		_ = json.Unmarshal(jsonBody, &jb)
		if eb.Error.Code != jb.Error.Code {
			l.mismatch(r, "binary error code %q != json %q", eb.Error.Code, jb.Error.Code)
		}
		return nil
	}
	bin, err := wire.DecodeScheduleResponse(body)
	if err != nil {
		l.mismatch(r, "undecodable binary response: %v", err)
		return nil
	}
	var js wire.ScheduleResponse
	if err := json.Unmarshal(jsonBody, &js); err != nil {
		l.mismatch(r, "undecodable json response: %v", err)
		return nil
	}
	l.answered(bin.FromMemo)
	bin.FromMemo, js.FromMemo = false, false
	a, errA := json.Marshal(bin)
	b, errB := json.Marshal(&js)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		l.mismatch(r, "binary response diverges from json after canonicalisation (%v, %v):\n binary: %s\n json:   %s", errA, errB, a, b)
	}
	return nil
}

func (l *loader) replayBatch(rs []replay) error {
	raws := make([]json.RawMessage, len(rs))
	for i := range rs {
		raws[i] = rs[i].raw
	}
	status, body, err := l.post("/v1/batch", wire.BatchRequest{Instances: raws, Options: l.opts})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		for i := range rs {
			l.mismatch(&rs[i], "batch request failed: HTTP %d: %s", status, body)
		}
		return nil
	}
	var resp wire.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != len(rs) {
		for i := range rs {
			l.mismatch(&rs[i], "undecodable batch response (%d results, err %v)", len(resp.Results), err)
		}
		return nil
	}
	for i := range rs {
		item := resp.Results[i]
		if item.Error != nil {
			l.compareError(&rs[i], item.Error.Code)
			continue
		}
		l.compareResult(&rs[i], item.Result)
	}
	return nil
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
	l.answered(got.FromMemo)
	want, err := malsched.Schedule(r.in, l.localOpts(r))
	switch {
	case err != nil:
		l.mismatch(r, "server succeeded but in-process Schedule fails: %v", err)
	case math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan):
		l.mismatch(r, "makespan %v != in-process %v", got.Makespan, want.Makespan)
	case math.Float64bits(got.LowerBound) != math.Float64bits(want.LowerBound):
		l.mismatch(r, "lower bound %v != in-process %v", got.LowerBound, want.LowerBound)
	case got.Branch != want.Branch || got.Solver != want.Solver:
		l.mismatch(r, "provenance %s/%s != in-process %s/%s", got.Branch, got.Solver, want.Branch, want.Solver)
	case got.Probes != want.Probes:
		l.mismatch(r, "probes %d != in-process %d", got.Probes, want.Probes)
	case got.Plan.Algorithm != want.Plan.Algorithm:
		l.mismatch(r, "plan algorithm %q != %q", got.Plan.Algorithm, want.Plan.Algorithm)
	case !reflect.DeepEqual(got.Plan.Placements, want.Plan.Placements):
		l.mismatch(r, "placements differ")
	case l.verbose:
		log.Printf("[%d] %s: ok (makespan %.6g, memo %v)",
			r.index, r.in.Name, got.Makespan, got.FromMemo)
	}
}
