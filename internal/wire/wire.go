// Package wire defines the scheduling service's wire protocol: the
// request/response/error shapes shared by the JSON and binary codecs, and
// the compact length-prefixed binary codec itself. The JSON schema is the
// struct tags on the types below (documented in docs/SERVICE.md); the
// binary format is a hand-rolled, zero-reflection encoding of exactly the
// same fields over pooled buffers, negotiated per request via Content-Type.
//
// Both codecs are views of one protocol: a binary request decodes through
// the same task/instance constructors as the JSON codec (identical
// validation, identical typed errors) and a binary response carries the
// same field values bit-for-bit (float64 payloads travel as raw IEEE-754
// bits, which is also what the JSON shortest-representation encoding
// round-trips). cmd/msload's -codec binary mode asserts the byte-level
// equivalence end to end against a live server.
//
// # Binary format (versions 1 and 2)
//
// Every message opens with a 4-byte header: magic "MS", a version byte,
// and a kind byte (request / response / error). Integers are unsigned
// LEB128 varints (signed values zig-zag encoded), float64s are 8-byte
// little-endian IEEE-754 bits, strings and arrays are length-prefixed with
// a varint. There is no field tagging and no reflection: field order is
// the format, and a version bump is the only compatible way to change it
// (see docs/SERVICE.md for the versioning rules).
//
// Version 2 extends the request layout with the precedence graph: after
// the instance block, a graph presence byte and (when present) the
// successor lists. Response and error layouts are unchanged. Negotiation
// is per message: encoders emit the lowest version whose layout carries
// the message (so a graphless request is byte-identical to version 1 and
// a version-1-only peer never sees a version 2 byte it didn't send),
// decoders accept every version in [VersionMin, Version].
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"malsched/internal/instance"
	"malsched/internal/schedule"
)

// ContentType is the negotiation key of the binary codec: a request whose
// Content-Type names it (see IsBinary) is decoded binary and answered
// binary (errors included); anything else speaks JSON. Version is part of
// the payload header, not the media type, so a future v2 negotiates
// identically.
const ContentType = "application/x-malsched-bin"

// Header bytes.
const (
	magic0 = 'M'
	magic1 = 'S'
	// Version is the newest binary version this build speaks (v2: request
	// carries the precedence graph); VersionMin is the oldest it still
	// decodes. Encoders emit the lowest version whose layout carries the
	// message, decoders accept the full range.
	Version    = 2
	VersionMin = 1

	// KindScheduleRequest..KindError tag the three message shapes.
	KindScheduleRequest  = 0x01
	KindScheduleResponse = 0x02
	KindError            = 0x03

	headerLen = 4
)

// Decode errors. Truncated or oversized payloads fail typed — a malformed
// binary request is a 400 on the server, never a panic.
var (
	ErrBadMagic   = errors.New("wire: bad magic (not a malsched binary message)")
	ErrBadVersion = errors.New("wire: unsupported binary version")
	ErrBadKind    = errors.New("wire: unexpected message kind")
	ErrTruncated  = errors.New("wire: truncated message")
	ErrTooLarge   = errors.New("wire: length prefix exceeds message size")
)

// RequestOptions selects and tunes the solver for one request (or one
// batch). The zero value / absent object is the paper's configuration:
// solver "mrt", default search tolerance, sequential search, the server's
// default timeout. Solver and portfolio names are validated against the
// registry at admission; unknown names fail the request with
// CodeUnknownSolver before any work is queued.
type RequestOptions struct {
	// Solver names a registered solver; empty means "mrt".
	Solver string `json:"solver,omitempty"`
	// Portfolio runs these registered solvers concurrently and keeps the
	// best certified result; overrides Solver.
	Portfolio []string `json:"portfolio,omitempty"`
	// Eps is the dichotomic search tolerance (0 = default 1e-3).
	Eps float64 `json:"eps,omitempty"`
	// Compact left-shifts the final schedule.
	Compact bool `json:"compact,omitempty"`
	// Parallelism is kept for wire compatibility: both codecs carry it and
	// the server rejects a value outside [0, 64], but the search is
	// sequential and ignores any value inside that range.
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS bounds the wall-clock time spent solving this request, in
	// milliseconds; 0 means the server's default, and the server's
	// MaxTimeout caps it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Lineage, when non-empty, names a replanning lineage: requests
	// sharing the key route to one shard (by lineage hash, overriding
	// fingerprint routing) and solve warm against that shard's carried
	// state for the key, so a client re-submitting a shrinking residual
	// workload pays fewer dual-search probes per solve. Purely a
	// performance hint — responses are bit-identical with or without it
	// (only probes/synthesized differ) and a wrong or reused key costs
	// probes, never correctness. Ignored for solvers without a dual
	// search. Max 128 bytes.
	Lineage string `json:"lineage,omitempty"`
	// Trace requests the solve trace: the dual search's probe
	// trajectory plus per-phase timings, returned as the response's "trace"
	// field and never stored in the memo. Pure observation — the schedule,
	// certificates and provenance are bit-identical traced or not. JSON
	// codec only: the binary layout is frozen per version (field order is
	// the format), so binary requests solve untraced until a future version
	// bump carries the flag.
	Trace bool `json:"trace,omitempty"`
}

// ScheduleRequest is the JSON body of POST /v1/schedule. The binary codec
// carries the same (instance, options) pair with the instance encoded
// inline instead of as raw JSON.
type ScheduleRequest struct {
	// Instance is the workload in the instance JSON codec
	// ({"name","m","tasks":[{"name","times"}]}).
	Instance json.RawMessage `json:"instance"`
	// Graph, when present, is a successor-list precedence DAG over the
	// instance's tasks: graph[i] lists the tasks that may start only after
	// task i completes. It is validated at admission (shape, edge bounds,
	// acyclicity — CodeBadGraph on failure) and requires an edge-aware
	// solver ("dag", "dag-crossover"); any other selection is CodeBadOptions.
	// The binary codec carries the same field as the wire/v2 graph section
	// (graphless requests still encode as version 1); only the batch path
	// remains JSON-only.
	Graph [][]int `json:"graph,omitempty"`
	// Options tunes the solve; absent means server defaults.
	Options *RequestOptions `json:"options,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many instances under one
// option set. Items fail individually — one poisoned instance never drops
// its siblings. The batch path is JSON-only; the binary codec covers the
// hot /v1/schedule path.
type BatchRequest struct {
	Instances []json.RawMessage `json:"instances"`
	Options   *RequestOptions   `json:"options,omitempty"`
}

// PlacementJSON and PlanJSON are the wire's names for the solver's own
// types, whose JSON tags are the wire's keys: a response carries the plan
// the engine returned, with no per-placement copy.
type (
	PlacementJSON = schedule.Placement
	PlanJSON      = schedule.Schedule
)

// ScheduleResponse is the success body of /v1/schedule (and of each batch
// item). Every field is produced by the same pipeline as the in-process
// malsched.Schedule, and the plan has passed verify.Plan on the way out.
type ScheduleResponse struct {
	// Name echoes the instance name.
	Name string `json:"name"`
	// Makespan and LowerBound are the certificates; floats round-trip
	// bit-exactly through both codecs (raw IEEE-754 bits in binary,
	// shortest-representation encoding in JSON), which is what lets
	// cmd/msload compare them for equality.
	Makespan   float64 `json:"makespan"`
	LowerBound float64 `json:"lower_bound"`
	// Branch and Solver carry provenance, Probes the dual-search effort;
	// Synthesized counts the probe outcomes a lineage-warmed solve
	// resolved from carried state without a dual step (0 for cold solves).
	Branch      string `json:"branch"`
	Solver      string `json:"solver"`
	Probes      int    `json:"probes"`
	Synthesized int    `json:"synthesized,omitempty"`
	// FromMemo reports a memoised answer. Shard always reads 0: an
	// msserve runs one engine, and the field stays because the binary
	// layout is frozen.
	FromMemo bool `json:"from_memo"`
	Shard    int  `json:"shard"`
	// Plan is the verified schedule.
	Plan PlanJSON `json:"plan"`
	// Trace is the solve trace, present only when the request set
	// options.trace (JSON codec only; the binary encoder never carries it —
	// see RequestOptions.Trace).
	Trace *TraceInfo `json:"trace,omitempty"`
}

// TraceInfo is the solve trace of one request: where the wall-clock time
// went, stage by stage, plus the dual search's probe trajectory.
// Phase fields are nanoseconds measured by the serving shard; a memo hit
// has SolveNS ≈ 0 and no probes. The schema is documented in
// docs/OBSERVABILITY.md.
type TraceInfo struct {
	// QueueNS is the wait for the shard's solve slot, CompileNS the
	// compiled-table resolution after a memo miss (0 on a memo hit and for
	// solvers that never probe), SolveNS the rest of the engine solve,
	// VerifyNS the response verification.
	QueueNS   int64 `json:"queue_ns"`
	CompileNS int64 `json:"compile_ns"`
	SolveNS   int64 `json:"solve_ns"`
	VerifyNS  int64 `json:"verify_ns"`
	// SearchNS is the dual search's own wall-clock time (inside SolveNS);
	// 0 for memo hits and solvers without a dual search.
	SearchNS int64 `json:"search_ns,omitempty"`
	// Probes is the probe trajectory in search order;
	// empty for memo hits and solvers without a dual search.
	Probes []TraceProbe `json:"probes,omitempty"`
}

// TraceProbe is one probe of the dual search.
type TraceProbe struct {
	// Lambda is the deadline guess, Segment its λ-breakpoint segment index
	// in the compiled tables (never negative).
	Lambda  float64 `json:"lambda"`
	Segment int     `json:"segment"`
	// Accepted reports whether the dual step produced a schedule; Reason
	// explains a rejection (empty when accepted) and Certified whether it
	// proves OPT > λ.
	Accepted  bool   `json:"accepted"`
	Reason    string `json:"reason,omitempty"`
	Certified bool   `json:"certified,omitempty"`
	// Synthesized reports an outcome a lineage-warmed solve resolved from
	// the compiled segment tables without running the dual step.
	Synthesized bool `json:"synthesized,omitempty"`
}

// ErrorInfo is the typed error detail used by every failure path.
type ErrorInfo struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
}

// ErrorBody is the body of every non-2xx response (JSON object or binary
// KindError message, matching the request's codec).
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// BatchItem pairs one batch instance with its result or typed error.
type BatchItem struct {
	Index  int               `json:"index"`
	Result *ScheduleResponse `json:"result,omitempty"`
	Error  *ErrorInfo        `json:"error,omitempty"`
}

// BatchResponse is the success body of /v1/batch; Results is index-aligned
// with the request's Instances.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// Error codes. The admission codes (queue_full, draining) map to 429/503,
// validation codes to 400, solve failures to 422/504, and verification
// failures — a schedule the server refuses to vouch for — to 500.
const (
	CodeBadRequest    = "bad_request"
	CodeBadInstance   = "bad_instance"
	CodeBadGraph      = "bad_graph"
	CodeUnknownSolver = "unknown_solver"
	CodeBadOptions    = "bad_options"
	CodeQueueFull     = "queue_full"
	CodeDraining      = "draining"
	CodeTimeout       = "timeout"
	CodeUnschedulable = "unschedulable"
	CodeVerifyFailed  = "verify_failed"
	CodeInternal      = "internal"
)

// bufPool recycles encode/decode scratch across requests. Buffers are
// handed out at zero length with whatever capacity they grew to; oversized
// ones are dropped rather than pinned forever. A sync.Pool holds pointers,
// so a buffer travels in a *[]byte box; boxPool recycles the emptied boxes,
// which makes a GetBuffer/PutBuffer pair allocation-free once warm.
var (
	bufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	}}
	boxPool = sync.Pool{New: func() any { return new([]byte) }}
)

// maxPooledBuf drops buffers that grew past this from the pool so one
// giant response doesn't pin memory for the process lifetime.
const maxPooledBuf = 1 << 20

// GetBuffer returns a zero-length scratch buffer from the pool. Append to
// it freely and hand it back with PutBuffer when the bytes have been
// written out.
func GetBuffer() []byte {
	box := bufPool.Get().(*[]byte)
	b := (*box)[:0]
	*box = nil
	boxPool.Put(box)
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer (or grown from one).
func PutBuffer(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	box := boxPool.Get().(*[]byte)
	*box = b[:0]
	bufPool.Put(box)
}

// ReadAll appends r to b until EOF and returns the grown buffer, also on
// error. A positive sizeHint (a declared Content-Length, which the caller
// caps at the most it is prepared to read) pre-sizes b once — with a byte
// of slack, so the read that finds EOF does not grow it — in place of
// append's growth series. It is io.ReadAll over a caller-owned, typically
// pooled, buffer.
func ReadAll(b []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	return readAll(b, r, sizeHint, math.MaxInt64)
}

// readAll is ReadAll that stops once b holds most bytes, and never asks r
// for a byte past them.
func readAll(b []byte, r io.Reader, sizeHint, most int64) ([]byte, error) {
	if sizeHint > 0 {
		b = slices.Grow(b, int(sizeHint)+1)
	}
	for int64(len(b)) < most {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		room := b[len(b):cap(b)]
		if left := most - int64(len(b)); int64(len(room)) > left {
			room = room[:left]
		}
		n, err := r.Read(room)
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendHeader opens a message at an explicit version.
func appendHeader(b []byte, version, kind byte) []byte {
	return append(b, magic0, magic1, version, kind)
}

func appendString[S ~string | ~[]byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendScheduleRequest encodes one /v1/schedule request: the instance
// inline (name, m, per-task name and time table), the precedence graph,
// and the options. A nil graph emits version 1 — byte-identical to the
// pre-graph codec, so graphless clients interoperate with version-1-only
// servers unchanged; a non-nil graph (the empty DAG included) emits
// version 2 with the successor lists after the instance block. A nil opts
// encodes as absent, matching a JSON body without an "options" key.
func AppendScheduleRequest(b []byte, in *instance.Instance, graph [][]int, opts *RequestOptions) []byte {
	version := byte(1)
	if graph != nil {
		version = 2
	}
	b = appendHeader(b, version, KindScheduleRequest)
	b = appendString(b, in.Name)
	b = binary.AppendUvarint(b, uint64(in.M))
	b = binary.AppendUvarint(b, uint64(len(in.Tasks)))
	for _, t := range in.Tasks {
		b = appendString(b, t.Name)
		mp := t.MaxProcs()
		b = binary.AppendUvarint(b, uint64(mp))
		for p := 1; p <= mp; p++ {
			b = appendF64(b, t.Time(p))
		}
	}
	if version >= 2 {
		// Graph section (v2+): presence byte, then the successor lists.
		// The encoder only reaches here with a non-nil graph, but the
		// layout keeps the presence byte so a future always-v2 encoder can
		// carry "no graph" too.
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(graph)))
		for _, ss := range graph {
			b = binary.AppendUvarint(b, uint64(len(ss)))
			for _, j := range ss {
				b = binary.AppendUvarint(b, uint64(j))
			}
		}
	}
	if opts == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendString(b, opts.Solver)
	b = binary.AppendUvarint(b, uint64(len(opts.Portfolio)))
	for _, name := range opts.Portfolio {
		b = appendString(b, name)
	}
	b = appendF64(b, opts.Eps)
	var flags byte
	if opts.Compact {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(opts.Parallelism))
	b = binary.AppendVarint(b, opts.TimeoutMS)
	b = appendString(b, opts.Lineage)
	return b
}

// AppendScheduleResponse encodes one success response. The layout is
// unchanged in version 2, so responses are stamped with the lowest version
// that carries them (1) and decode under any supported version — a
// version-1-only client reading a version-2-capable server never sees a
// header it cannot parse.
func AppendScheduleResponse(b []byte, r *ScheduleResponse) []byte {
	b = AppendResponseHead(b, r.Name)
	b = appendF64(b, r.Makespan)
	b = appendF64(b, r.LowerBound)
	b = appendString(b, r.Branch)
	b = appendString(b, r.Solver)
	b = binary.AppendUvarint(b, uint64(r.Probes))
	b = binary.AppendUvarint(b, uint64(r.Synthesized))
	var flags byte
	if r.FromMemo {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(r.Shard))
	b = appendString(b, r.Plan.Algorithm)
	b = binary.AppendUvarint(b, uint64(len(r.Plan.Placements)))
	for i := range r.Plan.Placements {
		p := &r.Plan.Placements[i]
		b = binary.AppendUvarint(b, uint64(p.Task))
		b = appendF64(b, p.Start)
		b = binary.AppendUvarint(b, uint64(p.Width))
		b = binary.AppendUvarint(b, uint64(p.First))
		b = binary.AppendUvarint(b, uint64(len(p.ProcSet)))
		for _, q := range p.ProcSet {
			b = binary.AppendUvarint(b, uint64(q))
		}
	}
	return b
}

// AppendResponseHead opens a success response: the header and the echo of
// the request's name, what AppendScheduleResponse writes before the answer.
// Written in front of a ResponseTail of the same answer, it makes the bytes
// AppendScheduleResponse would.
func AppendResponseHead[S ~string | ~[]byte](b []byte, name S) []byte {
	b = appendHeader(b, 1, KindScheduleResponse)
	return appendString(b, name)
}

// ResponseTail returns what follows the head in an encoded success
// response: every byte the answer decides and the request's name does not.
// msg must be a response this package encoded.
func ResponseTail(msg []byte) []byte {
	r := &reader{b: msg}
	r.header(KindScheduleResponse)
	r.skipStr()
	return msg[r.off:]
}

// AppendError encodes a typed error body (layout unchanged in version 2;
// stamped with the lowest version, like AppendScheduleResponse).
func AppendError(b []byte, e *ErrorBody) []byte {
	b = appendHeader(b, 1, KindError)
	b = appendString(b, e.Error.Code)
	return appendString(b, e.Error.Message)
}

// reader walks a binary payload; the first error sticks and every
// subsequent read returns zero values, so decode paths check once at the
// end.
type reader struct {
	b   []byte
	off int
	ver byte // message version, recorded by header()
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// Counts, widths and indices are almost always below 0x80: one byte.
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return uint64(r.b[r.off-1])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// count reads a length prefix for elements of at least elemSize bytes and
// rejects counts the remaining payload cannot possibly hold, so a hostile
// length prefix cannot drive a huge allocation. It decides v > rem/elemSize
// without dividing: past v > rem the product v·elemSize (elemSize ≤ 8)
// cannot overflow, and v·elemSize > rem is the same test on integers.
func (r *reader) count(elemSize int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if rem := uint64(len(r.b) - r.off); v > rem || v*uint64(elemSize) > rem {
		r.fail(ErrTooLarge)
		return 0
	}
	return int(v)
}

// view reads a length-prefixed string as a window of the payload, without
// materialising it.
func (r *reader) view() []byte { return r.take(r.count(1)) }

// take returns the next n bytes as a window of the payload and steps past
// them. The caller has proved they are there.
func (r *reader) take(n int) []byte {
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) str() string { return string(r.view()) }

// skipStr steps over a string without materialising it.
func (r *reader) skipStr() {
	r.off += r.count(1)
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// done rejects trailing garbage, mirroring the JSON path's dec.More()
// check.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrTooLarge, len(r.b)-r.off)
	}
	return nil
}

// header validates the 4 opening bytes against the expected kind.
func (r *reader) header(kind byte) {
	if len(r.b) < headerLen {
		r.fail(ErrTruncated)
		return
	}
	if r.b[0] != magic0 || r.b[1] != magic1 {
		r.fail(ErrBadMagic)
		return
	}
	if r.b[2] < VersionMin || r.b[2] > Version {
		r.fail(fmt.Errorf("%w: %d (this build speaks %d..%d)", ErrBadVersion, r.b[2], VersionMin, Version))
		return
	}
	if r.b[3] != kind {
		r.fail(fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrBadKind, r.b[3], kind))
		return
	}
	r.ver = r.b[2]
	r.off = headerLen
}

// DecodeScheduleResponse decodes a binary success response. Empty
// placement lists decode non-nil and empty proc sets decode nil, matching
// what encoding/json produces for the equivalent JSON body — so a binary
// and a JSON response to the same request are DeepEqual after decoding.
func DecodeScheduleResponse(data []byte) (*ScheduleResponse, error) {
	r := &reader{b: data}
	r.header(KindScheduleResponse)
	resp := &ScheduleResponse{}
	resp.Name = r.str()
	resp.Makespan = r.f64()
	resp.LowerBound = r.f64()
	resp.Branch = r.str()
	resp.Solver = r.str()
	resp.Probes = int(r.uvarint())
	resp.Synthesized = int(r.uvarint())
	resp.FromMemo = r.u8()&1 != 0
	resp.Shard = int(r.uvarint())
	resp.Plan.Algorithm = r.str()
	nPl := r.count(5) // a placement is at least 4 varints + a count
	resp.Plan.Placements = make([]PlacementJSON, nPl)
	// Every proc set is a capacity-capped window of one slab, allocated at
	// the first non-empty set: a processor index takes at least one wire
	// byte, so the bytes left then bound all the sets still to come.
	var procs []int
	for i := 0; i < nPl && r.err == nil; i++ {
		p := &resp.Plan.Placements[i]
		p.Task = int(r.uvarint())
		p.Start = r.f64()
		p.Width = int(r.uvarint())
		p.First = int(r.uvarint())
		if nProcs := r.count(1); nProcs > 0 {
			if procs == nil {
				procs = make([]int, 0, len(r.b)-r.off)
			}
			lo := len(procs)
			procs = procs[:lo+nProcs]
			p.ProcSet = procs[lo:len(procs):len(procs)]
			for j := range p.ProcSet {
				p.ProcSet[j] = int(r.uvarint())
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}

// DecodeError decodes a binary error body.
func DecodeError(data []byte) (*ErrorBody, error) {
	r := &reader{b: data}
	r.header(KindError)
	e := &ErrorBody{}
	e.Error.Code = r.str()
	e.Error.Message = r.str()
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}
