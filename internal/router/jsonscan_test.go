package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/server"
	"malsched/internal/solver"
	"malsched/internal/wire"
)

// answer is what a tier said to one request, as far as the decode path
// could show in it.
type answer struct {
	status        int
	code, message string // of the error body; empty on 200
}

func answerOf(t *testing.T, status int, body []byte) answer {
	t.Helper()
	a := answer{status: status}
	if status != http.StatusOK {
		var e wire.ErrorBody
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("HTTP %d with an undecodable error body %q: %v", status, body, err)
		}
		a.code, a.message = e.Error.Code, e.Error.Message
	}
	return a
}

// askAll sends one JSON body to a shard by both of its entries and to a
// router over it, and requires the routed status, Content-Type and refusal
// bytes to be the shard's over HTTP: the shard alone answers for a body.
func askAll(t *testing.T, rt *Router, shard *server.Server, what, path, body string) (serve, overHTTP answer) {
	t.Helper()
	status, _, out, _, err := shard.Serve(context.Background(), path, wire.JSONContentType, []byte(body), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	serve = answerOf(t, status, out)
	bare := post(shard.Handler(), path, wire.JSONContentType, []byte(body))
	sameAnswer(t, what, post(rt.Handler(), path, wire.JSONContentType, []byte(body)), bare)
	return serve, answerOf(t, bare.Code, bare.Body.Bytes())
}

const twoTasks = `"tasks":[{"name":"a","times":[4,2.5,2]},{"name":"b","times":[3]}]`

// TestJSONAnswersMatchEncodingJSON is the differential of the JSON decode at
// both tiers. Every expectation below is what the tiers answered when
// encoding/json decoded every body (recorded at the parent of the change
// that introduced the request scanner, where this test passes too); the
// bodies cross the scanner's subset in both directions, so an answer that
// depends on which path decoded a body fails here. The router answers each
// body as the shard does, byte for byte (askAll).
func TestJSONAnswersMatchEncodingJSON(t *testing.T) {
	inst := func(fields string) string { return `{"instance":{` + fields + `}}` }
	valid := `"instance":{"name":"x","m":2,` + twoTasks + `}`
	ok := answer{status: http.StatusOK}
	bad := func(code, message string) answer { return answer{http.StatusBadRequest, code, message} }
	noProcs := bad(wire.CodeBadInstance, `instance: number of processors must be ≥ 1: m=0 (instance "")`)
	cases := []struct {
		name, body string
		want       answer
	}{
		{"canonical", `{` + valid + `}`, ok},
		{"graph", `{` + valid + `,"graph":[[1],[]],"options":{"solver":"dag"}}`, ok},
		{"every option", `{"options":{"solver":"mrt","portfolio":["mrt","seq-lpt"],"eps":0.01,"compact":true,"parallelism":2,"timeout_ms":1500,"lineage":"k","trace":true},` + valid + `}`, ok},
		{"m after tasks", inst(twoTasks + `,"m":3,"name":"late"`), ok},
		{"duplicate key", inst(`"m":0,"m":3,` + twoTasks), ok},
		{"case-folded key", inst(`"M":2,` + twoTasks), ok},
		{"escape", inst(`"name":"\u0041","m":2,` + twoTasks), ok},
		{"utf-8 name", inst(`"name":"tâche","m":2,` + twoTasks), ok},
		{"whitespace after the value", `{` + valid + "}\n \t", ok},
		{"1e999", inst(`"m":2,"tasks":[{"name":"a","times":[1e999]}]`),
			bad(wire.CodeBadInstance, "instance: decoding JSON: json: cannot unmarshal number 1e999 into Go struct field jsonTask.tasks.times of type float64")},
		{"01", inst(`"m":01,` + twoTasks),
			bad(wire.CodeBadRequest, "decoding request body: invalid character '1' after object key:value pair")},
		{"1.", inst(`"m":2,"tasks":[{"name":"a","times":[1.]}]`),
			bad(wire.CodeBadRequest, "decoding request body: invalid character ']' after decimal point in numeric literal")},
		{"-0", inst(`"m":2,"tasks":[{"name":"a","times":[-0]}]`),
			bad(wire.CodeBadInstance, `instance: task 0: task: execution times must be positive and finite: t(1)=-0 (task "a")`)},
		{"16.0 for m", inst(`"m":16.0,` + twoTasks),
			bad(wire.CodeBadInstance, "instance: decoding JSON: json: cannot unmarshal number 16.0 into Go struct field jsonInstance.m of type int")},
		{"null tasks", inst(`"m":2,"tasks":null`), bad(wire.CodeBadInstance, `instance: no tasks (instance "")`)},
		{"no instance", `{"options":{}}`, bad(wire.CodeBadInstance, "instance: decoding JSON: EOF")},
		{"empty times", inst(`"m":2,"tasks":[{"name":"a","times":[]}]`),
			bad(wire.CodeBadInstance, `instance: task 0: task: no execution times (task "a")`)},
		{"non-monotone row", inst(`"m":2,"tasks":[{"name":"ok","times":[2]},{"name":"t","times":[1,5]}]`),
			bad(wire.CodeBadInstance, `instance: task 1: task: execution time increases with processors (not monotone): t(2)=5 > t(1)=1 (task "t")`)},
		{"bad task before bad m", inst(`"m":0,"tasks":[{"name":"t","times":[1,5]}]`),
			bad(wire.CodeBadInstance, `instance: task 0: task: execution time increases with processors (not monotone): t(2)=5 > t(1)=1 (task "t")`)},
		{"no processors", inst(twoTasks), noProcs},
		{"no tasks", inst(`"name":"z","m":2`), bad(wire.CodeBadInstance, `instance: no tasks (instance "z")`)},
		{"bad options before bad instance", `{"options":{"eps":2},` + inst(`"m":0`)[1:],
			bad(wire.CodeBadOptions, "eps must be in [0, 1], got 2")},
		{"unknown solver before bad instance", `{"options":{"solver":"nope"},` + inst(`"m":0`)[1:],
			bad(wire.CodeUnknownSolver, solver.ErrUnknown("nope").Error())},
		{"bad instance before bad graph", `{"graph":[[0]],` + inst(`"m":0,` + twoTasks)[1:], noProcs},
		{"cyclic graph", `{` + valid + `,"graph":[[1],[0]],"options":{"solver":"dag"}}`,
			bad(wire.CodeBadGraph, "precedence: graph is cyclic")},
		{"negative edge", `{` + valid + `,"graph":[[-1],[]],"options":{"solver":"dag"}}`,
			bad(wire.CodeBadGraph, "precedence: edge endpoint out of range: 0 -> -1")},
		{"BOM", "\xef\xbb\xbf{" + valid + `}`,
			bad(wire.CodeBadRequest, "decoding request body: invalid character 'ï' looking for beginning of value")},
		{"empty body", ``, bad(wire.CodeBadRequest, "decoding request body: EOF")},
	}
	rt, shards := newTier(t, 1, Config{})
	shard := shards[0]
	for _, c := range cases {
		serve, overHTTP := askAll(t, rt, shard, c.name, wire.PathSchedule, c.body)
		if serve != c.want || overHTTP != c.want {
			t.Errorf("%s: Serve %+v, ServeHTTP %+v, want %+v", c.name, serve, overHTTP, c.want)
		}
	}
}

// TestTrailingDataRule: only whitespace may follow a request's JSON value,
// on both endpoints, by every entry of both tiers. (json.Decoder.More reads
// a closing bracket as the end of an enclosing array, so the shards used to
// serve `…}}` and `…}]` that the router refused.)
func TestTrailingDataRule(t *testing.T) {
	rt, shards := newTier(t, 1, Config{})
	shard := shards[0]
	instance := `{"name":"x","m":2,` + twoTasks + `}`
	refused := answer{http.StatusBadRequest, wire.CodeBadRequest, wire.ErrTrailingData.Error()}
	for path, body := range map[string]string{
		wire.PathSchedule: `{"instance":` + instance + `}`,
		wire.PathBatch:    `{"instances":[` + instance + `]}`,
	} {
		for tail, want := range map[string]answer{
			"}": refused, "]": refused, " x": refused, "{}": refused, "\n \t": {status: http.StatusOK},
		} {
			what := fmt.Sprintf("%s with tail %q", path, tail)
			serve, overHTTP := askAll(t, rt, shard, what, path, body+tail)
			if serve != want || overHTTP != want {
				t.Errorf("%s: Serve %+v, ServeHTTP %+v, want %+v", what, serve, overHTTP, want)
			}
		}
	}
}

// TestJSONDecodePathCounters: the bench-shaped body is the scanner's, a body
// with an escaped name is encoding/json's, both tiers count each under its
// path, and the two answers are the same answer.
func TestJSONDecodePathCounters(t *testing.T) {
	rt, shards := newTier(t, 1, Config{})
	scanned, err := json.Marshal(wire.ScheduleRequest{Instance: mustRaw(t, instance.Mixed(9, 24, 16))})
	if err != nil {
		t.Fatal(err)
	}
	// The same workload, its instance name opening with an escaped "c".
	escaped := bytes.Replace(scanned, []byte(`"name":"`), []byte(`"name":"\u0063`), 1)
	var a, b wire.ScheduleResponse
	for _, c := range []struct {
		body []byte
		resp *wire.ScheduleResponse
	}{{scanned, &a}, {escaped, &b}} {
		rec := postJSON(t, rt.Handler(), "/v1/schedule", json.RawMessage(c.body))
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), c.resp); err != nil {
			t.Fatal(err)
		}
	}
	if b.Name != "c"+a.Name || !b.FromMemo {
		t.Fatalf("escaped body answered %q from_memo=%v, scanned body %q", b.Name, b.FromMemo, a.Name)
	}
	b.Name, b.FromMemo = a.Name, a.FromMemo
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("the decode path shows in the answer:\n scan:     %+v\n fallback: %+v", a, b)
	}
	var text bytes.Buffer
	if err := rt.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := shards[0].Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`msroute_json_decode_total{path="scan"} 1`, `msroute_json_decode_total{path="fallback"} 1`,
		`malsched_json_decode_total{path="scan"} 1`, `malsched_json_decode_total{path="fallback"} 1`,
	} {
		if !strings.Contains(text.String(), line+"\n") {
			t.Errorf("missing %q in the exposition", line)
		}
	}
}
