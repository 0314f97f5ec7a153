package server

import (
	"bytes"
	"encoding/json"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/wire"
)

// The request/response/error shapes of the msserve API live in
// internal/wire, shared between the JSON codec, the binary codec and the
// routing tier (internal/router); this file keeps only what is the
// server's own: the /statsz and /healthz bodies and the instance and
// outcome mappings. The instance payload of the JSON codec is the module's
// one JSON instance schema (instance.WriteJSON's), so msgen output pastes
// directly into a request; the binary codec encodes the same instance
// inline through the same validating constructors.
//
// The full schema is documented in docs/SERVICE.md.

// QueueStats snapshots the admission queue for /statsz.
type QueueStats struct {
	// Depth is the configured bound on concurrently admitted requests.
	Depth int `json:"depth"`
	// InFlight is the number of currently admitted requests.
	InFlight int `json:"in_flight"`
	// Accepted and Rejected count admission outcomes since start.
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	// Draining reports drain mode (no new admissions, /healthz is 503).
	Draining bool `json:"draining"`
}

// ShardStats snapshots the process's engine for /statsz. Shard always
// reads 0: the list it sits in has one entry per process (see
// StatsResponse.Shards).
type ShardStats struct {
	Shard       int    `json:"shard"`
	Scheduled   uint64 `json:"scheduled"`
	Errors      uint64 `json:"errors"`
	Panics      uint64 `json:"panics"`
	Timeouts    uint64 `json:"timeouts"`
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	MemoEntries int    `json:"memo_entries"`
	// CompileHits/CompileMisses count the engine's compiled-instance cache
	// probes. The engine probes it after a memo miss only, so batch items
	// of a repeated shape share one compilation and memo hits move neither
	// counter; CompiledEntries is the resident table count.
	CompileHits     uint64 `json:"compile_hits"`
	CompileMisses   uint64 `json:"compile_misses"`
	CompiledEntries int    `json:"compiled_entries"`
	// WarmSolves counts solves run against a request lineage's carried
	// state, Synthesized the probe outcomes those solves resolved without
	// a dual step, WarmEntries the resident lineage count of the engine's
	// registry.
	WarmSolves  uint64 `json:"warm_solves"`
	Synthesized uint64 `json:"synthesized"`
	WarmEntries int    `json:"warm_entries"`
}

// StatsResponse is the body of GET /statsz.
type StatsResponse struct {
	// Schema versions the payload ("statsz/v1"); additive changes only
	// within a version. The drift-guard tests pin the documented key set.
	Schema string     `json:"schema"`
	Queue  QueueStats `json:"queue"`
	// Shards holds exactly one entry, the process's engine. The list stays
	// because statsz/v1 takes additive changes only; a shard of the fleet is
	// a whole msserve process behind msroute.
	Shards []ShardStats `json:"shards"`
	// VerifyFailures counts responses withheld because verify.Plan
	// rejected the solution — any non-zero value is a bug worth paging on.
	VerifyFailures uint64 `json:"verify_failures"`
	// BinaryRequests counts /v1/schedule requests served over the binary
	// codec (Content-Type negotiated; see docs/SERVICE.md).
	BinaryRequests uint64 `json:"binary_requests"`
	// GraphRequests counts /v1/schedule requests that carried a precedence
	// graph, over either codec (JSON "graph" field or wire/v2 graph
	// section), whether or not the graph passed validation.
	GraphRequests uint64 `json:"graph_requests"`
}

// HealthResponse is the body of GET /healthz (200 "ok", 503 "draining").
type HealthResponse struct {
	Status string `json:"status"`
}

// DecodeInstance decodes one wire instance as the service decodes it
// (wire.DecodeJSONInstance), fully validated (monotone profiles included).
func DecodeInstance(raw json.RawMessage) (*instance.Instance, error) {
	in, _, err := wire.DecodeJSONInstance(raw)
	return in, err
}

// EncodeInstance encodes an instance for a request body.
func EncodeInstance(in *instance.Instance) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ResponseOf maps an engine outcome onto the wire type. shard fills the
// response's frozen shard field, which msserve always sets to 0.
func ResponseOf(in *instance.Instance, out engine.Outcome, shard int) *wire.ScheduleResponse {
	resp := new(wire.ScheduleResponse)
	fillResponse(resp, in, &out, shard)
	return resp
}

// fillResponse is ResponseOf into a response the caller owns, which the
// single-request path keeps in its own frame. The plan is the outcome's
// own (the memo's copy on a hit), not a copy of it.
func fillResponse(resp *wire.ScheduleResponse, in *instance.Instance, out *engine.Outcome, shard int) {
	*resp = wire.ScheduleResponse{
		Name:        in.Name,
		Makespan:    out.Makespan,
		LowerBound:  out.LowerBound,
		Branch:      out.Branch,
		Solver:      out.Solver,
		Probes:      out.Probes,
		Synthesized: out.Synthesized,
		FromMemo:    out.FromMemo,
		Shard:       shard,
		Plan:        *out.Plan,
	}
}
