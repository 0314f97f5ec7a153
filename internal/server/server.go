// Package server implements msserve, the production HTTP/JSON scheduling
// service over the batch engine: a bounded admission queue in front of one
// engine, per-request solver selection validated against the registry, and
// verify.Plan enforced on every response path — the server never vouches
// for a schedule it has not independently checked against the request's
// exact workload: on the request itself, or, for a binary byte hit, on the
// memo entry's first hit over the same words (see byteHit).
//
// Endpoints:
//
//	POST /v1/schedule  one instance → one verified schedule
//	POST /v1/batch     many instances, per-item errors, shared options
//	GET  /healthz      200 while serving, 503 once draining
//	GET  /statsz       queue + engine counters
//	GET  /metricsz     the same counters and the stage histograms, as Prometheus text
//
// The two scheduling endpoints are one byte-in/byte-out request path
// (Server.serve) with two entries: the HTTP handlers above, and Serve, the
// byte-level call an in-process routing tier uses in place of a request
// and a recorder per hop.
//
// Admission control is a fixed-capacity token queue: a request that cannot
// take a token immediately is rejected with 429 and a Retry-After header
// rather than queued unboundedly — under overload the service sheds load
// instead of accumulating latency. StartDrain flips the server into drain
// mode: /healthz turns 503 (so load balancers stop routing), new scheduling
// requests are refused with 503/draining, and in-flight requests run to
// completion; cmd/msserve wires this to SIGTERM ahead of http.Server
// shutdown.
//
// The wire schema lives in protocol.go and docs/SERVICE.md.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"malsched/internal/engine"
	"malsched/internal/fphash"
	"malsched/internal/instance"
	"malsched/internal/obs"
	"malsched/internal/precedence"
	"malsched/internal/solver"
	"malsched/internal/verify"
	"malsched/internal/wire"
)

// Defaults for the zero Config.
const (
	DefaultQueueDepth   = 64
	DefaultMaxTimeout   = 60 * time.Second
	DefaultMaxBatch     = 256
	DefaultMaxBodyBytes = 8 << 20
	// MaxLineageBytes caps the lineage key of RequestOptions.Lineage.
	MaxLineageBytes = 128
	// DefaultMaxParallel bounds RequestOptions.Parallelism, a wire field
	// the search ignores: a value inside [0, DefaultMaxParallel] is
	// accepted, one outside it is a bad_options error, so clients see the
	// same contract whatever value they send.
	DefaultMaxParallel = 64
)

// Config tunes a Server. The zero value serves with one engine, GOMAXPROCS
// solve slots, the engine's default memo size, a DefaultQueueDepth
// admission queue, no default per-request timeout and the paper's
// scheduling configuration.
type Config struct {
	// Workers bounds concurrent solves in the process (a token per running
	// solve, held across the memo probe and the search); ≤ 0 means
	// GOMAXPROCS.
	Workers int
	// MemoCapacity sizes the engine's LRU memo (0 default, negative
	// disables).
	MemoCapacity int
	// QueueDepth bounds concurrently admitted requests; further requests
	// get 429 + Retry-After. ≤ 0 means DefaultQueueDepth.
	QueueDepth int
	// DefaultTimeout applies to requests that do not set timeout_ms;
	// 0 means no limit.
	DefaultTimeout time.Duration
	// MaxTimeout caps per-request timeouts; ≤ 0 means DefaultMaxTimeout.
	MaxTimeout time.Duration
	// MaxBatch caps instances per /v1/batch request; ≤ 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// MaxBodyBytes caps request body size; ≤ 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Logger, when non-nil, receives structured request logs (log/slog):
	// one line per scheduling request when LogRequests is set, and a Warn
	// line with stage breakdown for every request at or above
	// SlowThreshold. Each line carries the request ID minted at the edge or
	// propagated from the routing tier (X-Malsched-Request). Nil disables
	// request logging entirely.
	Logger *slog.Logger
	// SlowThreshold flags requests lasting at least this long as slow
	// (logged at Warn with stage timings and, when captured, the solve
	// trace summary); 0 disables the slow path.
	SlowThreshold time.Duration
	// LogRequests logs every scheduling request at Info, not just slow
	// ones.
	LogRequests bool
}

// Server is the scheduling service. Build with New, mount Handler on an
// http.Server, call StartDrain on shutdown signals. Safe for concurrent
// use.
type Server struct {
	cfg Config
	eng *engine.Engine
	// slots bounds concurrent solves to cfg.Workers — the engine's own pool
	// only bounds its batch entry points, and the server drives the engine
	// through per-call entry points, so the bound lives here.
	slots chan struct{}
	sem   chan struct{}
	mux   *http.ServeMux

	// metrics is the /metricsz registry and the server's only set of books:
	// /statsz reads the same instruments. stages and requests resolve the
	// per-request label combinations; the rest are resolved once at New.
	metrics    *obs.Registry
	stages     *obs.Vec[stageKey, *stageSet]
	requests   *obs.Vec[reqKey, *obs.Counter]
	jsonDecode [wire.NumDecodePaths]*obs.Counter

	accepted, rejected, verifyFail, binaryReqs, graphReqs, byteHits *obs.Counter

	draining atomic.Bool

	// admitted, when non-nil, runs once per admitted scheduling request
	// after the queue token is taken; the admission-control tests use it
	// to hold tokens deterministically.
	admitted func()
	// corrupt, when non-nil, mutates solutions between solve and
	// verification; the response-verification tests use it to prove a bad
	// plan yields a 500, never a bad schedule.
	corrupt func(*engine.Solution)
}

// New builds a Server; see Config for zero-value defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	s := &Server{
		cfg:     cfg,
		eng:     engine.New(engine.Config{MemoCapacity: cfg.MemoCapacity}),
		slots:   make(chan struct{}, cfg.Workers),
		sem:     make(chan struct{}, cfg.QueueDepth),
		mux:     http.NewServeMux(),
		metrics: obs.NewRegistry(),
	}
	s.registerMetrics()
	s.mux.HandleFunc("POST "+wire.PathSchedule, s.handleHTTP(wire.PathSchedule))
	s.mux.HandleFunc("POST "+wire.PathBatch, s.handleHTTP(wire.PathBatch))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.Handle("GET /metricsz", s.metrics.Handler())
	return s
}

// Handler returns the service's HTTP handler. The value also carries the
// byte-level entry Serve, which is how an in-process routing tier reaches
// the scheduling endpoints without building an HTTP request per hop.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP serves the endpoints listed in the package comment.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain switches the server into drain mode: /healthz answers 503, new
// scheduling requests are refused with a typed "draining" error, in-flight
// requests finish normally. It is idempotent and never blocks; callers then
// use http.Server.Shutdown to wait for the in-flight connections.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Stats snapshots the queue and the engine.
func (s *Server) Stats() StatsResponse {
	resp := StatsResponse{
		Schema: StatszSchema,
		Queue: QueueStats{
			Depth:    s.cfg.QueueDepth,
			InFlight: len(s.sem),
			Accepted: s.accepted.Value(),
			Rejected: s.rejected.Value(),
			Draining: s.draining.Load(),
		},
		VerifyFailures: s.verifyFail.Value(),
		BinaryRequests: s.binaryReqs.Value(),
		GraphRequests:  s.graphReqs.Value(),
	}
	// statsz/v1 keeps its shards list: the process's one engine is its only
	// entry.
	st := s.eng.Stats()
	resp.Shards = []ShardStats{{
		Scheduled:       st.Scheduled,
		Errors:          st.Errors,
		Panics:          st.Panics,
		Timeouts:        st.Timeouts,
		MemoHits:        st.MemoHits,
		MemoMisses:      st.MemoMisses,
		MemoEntries:     st.MemoEntries,
		CompileHits:     st.CompileHits,
		CompileMisses:   st.CompileMisses,
		CompiledEntries: st.CompiledEntries,
		WarmSolves:      st.WarmSolves,
		Synthesized:     st.Synthesized,
		WarmEntries:     st.WarmEntries,
	}}
	return resp
}

// admit takes an admission token, or reports why it cannot. One token is
// held per scheduling request (single or batch) for its whole lifetime and
// handed back with release.
func (s *Server) admit() (errInfo *wire.ErrorInfo, status int) {
	if s.draining.Load() {
		return &wire.ErrorInfo{Code: wire.CodeDraining, Message: "server is draining; retry against another replica"}, http.StatusServiceUnavailable
	}
	select {
	case s.sem <- struct{}{}:
		s.accepted.Inc()
		if s.admitted != nil {
			s.admitted()
		}
		return nil, 0
	default:
		s.rejected.Inc()
		return &wire.ErrorInfo{
			Code:    wire.CodeQueueFull,
			Message: fmt.Sprintf("admission queue full (%d in flight); retry after backoff", s.cfg.QueueDepth),
		}, http.StatusTooManyRequests
	}
}

func (s *Server) release() { <-s.sem }

// resolveOptions validates the per-request options against the registry and
// the server's caps, returning the engine options and the effective
// timeout.
func (s *Server) resolveOptions(ro *wire.RequestOptions) (engine.Options, time.Duration, *wire.ErrorInfo) {
	var o engine.Options
	timeout := s.cfg.DefaultTimeout
	if timeout > s.cfg.MaxTimeout {
		// The cap binds the default too, so a request without options gets
		// the same effective deadline as one with an empty options object.
		timeout = s.cfg.MaxTimeout
	}
	if ro == nil {
		return o, timeout, nil
	}
	if len(ro.Portfolio) > 0 {
		for _, name := range ro.Portfolio {
			if name == solver.PortfolioName {
				return o, 0, &wire.ErrorInfo{Code: wire.CodeBadOptions, Message: "portfolio members must be leaf solvers, not \"portfolio\""}
			}
			if _, ok := solver.Lookup(name); !ok {
				return o, 0, &wire.ErrorInfo{Code: wire.CodeUnknownSolver, Message: solver.ErrUnknown(name).Error()}
			}
		}
		o.Portfolio = append([]string(nil), ro.Portfolio...)
	} else if ro.Solver != "" {
		if _, ok := solver.Lookup(ro.Solver); !ok {
			return o, 0, &wire.ErrorInfo{Code: wire.CodeUnknownSolver, Message: solver.ErrUnknown(ro.Solver).Error()}
		}
		o.Solver = ro.Solver
	}
	if ro.Eps < 0 || ro.Eps != ro.Eps || ro.Eps > 1 {
		return o, 0, &wire.ErrorInfo{Code: wire.CodeBadOptions, Message: fmt.Sprintf("eps must be in [0, 1], got %v", ro.Eps)}
	}
	o.Eps = ro.Eps
	o.Compact = ro.Compact
	// Trace is observation only — excluded from the memo fingerprint, so
	// traced and untraced requests share memo entries (a hit returns phases
	// without probes). The binary codec never sets it
	// (frozen layout; see wire.RequestOptions.Trace).
	o.Trace = ro.Trace
	if ro.Parallelism < 0 || ro.Parallelism > DefaultMaxParallel {
		return o, 0, &wire.ErrorInfo{Code: wire.CodeBadOptions, Message: fmt.Sprintf("parallelism must be in [0, %d], got %d", DefaultMaxParallel, ro.Parallelism)}
	}
	if ro.TimeoutMS < 0 {
		return o, 0, &wire.ErrorInfo{Code: wire.CodeBadOptions, Message: fmt.Sprintf("timeout_ms must be ≥ 0, got %d", ro.TimeoutMS)}
	}
	if ro.TimeoutMS > 0 {
		// Cap in milliseconds before converting: the product in
		// nanoseconds overflows int64 for large values, and a wrapped
		// non-positive timeout would mean no deadline at all.
		timeout = s.cfg.MaxTimeout
		if ro.TimeoutMS <= s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(ro.TimeoutMS) * time.Millisecond
		}
	}
	if len(ro.Lineage) > MaxLineageBytes {
		return o, 0, &wire.ErrorInfo{Code: wire.CodeBadOptions, Message: fmt.Sprintf("lineage key exceeds %d bytes", MaxLineageBytes)}
	}
	return o, timeout, nil
}

// lineageOf extracts the validated lineage key of a request's options.
func lineageOf(ro *wire.RequestOptions) string {
	if ro == nil {
		return ""
	}
	return ro.Lineage
}

// lineageHash maps a lineage key onto the routing/registry hash space.
func lineageHash(lineage string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(lineage))
	return h.Sum64()
}

// solveVerified runs one instance on the engine and re-checks the result
// with verify.Plan before anything is released to the caller. It fills resp,
// or returns a typed error with its HTTP status. A verified memo hit leaves
// its entry in rc.memo for the encoder (see solveAndEncode).
//
// The profiles are hashed once: by the binary frame's walk, whose prefix
// arrives here, or else by the engine inside the solve slot. Both caches key
// off that prefix — the memo key, and the compiled-cache key — so renamed
// copies of the same workload under the same options hit the memo. A
// request with a lineage key solves against the lineage's carried warm
// state instead, found by the key's hash: consecutive residuals of one
// replanning client have different fingerprints. The engine probes its
// memo first and resolves the compiled λ-breakpoint tables only after a
// miss, through its compiled-instance cache — /v1/batch items of a
// repeated shape and memo-miss re-solves under different options share one
// set of tables, and a memo hit pays for none. The solve slots bound
// concurrency to Config.Workers across all requests, compilation included.
func (s *Server) solveVerified(in *instance.Instance, o engine.Options, timeout time.Duration, lineage string, prefix *fphash.Hash, rc *reqCtx, resp *wire.ScheduleResponse) (*wire.ErrorInfo, int) {
	var ws *engine.WarmState
	rc.solver = solverLabel(o)
	var st stageNS
	rc.lap() // the queue stage starts here, after decode and validation
	s.slots <- struct{}{}
	st.queue = rc.lap()
	if lineage != "" && engine.WantsCompiled(o) {
		ws = s.eng.WarmFor(lineageHash(lineage))
	}
	out := s.eng.ScheduleFolded(in, o, timeout, prefix, ws)
	// The engine reports the table resolution it did inside the call (0 on
	// a memo hit); the rest of the call is the solve stage.
	st.compile = out.CompileNS
	st.solve = rc.lap() - st.compile
	<-s.slots
	set := s.stages.Get(stageKey{solver: rc.solver, codec: rc.codec})
	rc.set = set
	if out.Err != nil {
		set.observe(st)
		rc.st = st
		return errInfoOf(out.Err), statusOf(out.Err)
	}
	if s.corrupt != nil {
		// The hook takes a copy's address, so out itself stays in this frame.
		// What it returns is no longer the memo's answer, so no encoding of it
		// may be attached to the entry.
		sol := out.Solution
		s.corrupt(&sol)
		out.Solution = sol
		out.Memo = nil
	}
	c := verify.Certified{Plan: out.Plan, Makespan: out.Makespan, LowerBound: out.LowerBound}
	if err := verify.Plan(in, c, false); err != nil {
		s.verifyFail.Inc()
		st.verify = rc.lap()
		set.observe(st)
		rc.st = st
		return &wire.ErrorInfo{
			Code:    wire.CodeVerifyFailed,
			Message: fmt.Sprintf("refusing to serve an unverified schedule for %q: %v", in.Name, err),
		}, http.StatusInternalServerError
	}
	if o.Edges != nil {
		// DAG responses additionally re-check every precedence edge — the
		// same never-vouch-unverified stance as verify.Plan above, extended
		// to the ordering constraints the client asked for.
		if err := verify.Precedence(in, o.Edges, out.Plan); err != nil {
			s.verifyFail.Inc()
			st.verify = rc.lap()
			set.observe(st)
			rc.st = st
			return &wire.ErrorInfo{
				Code:    wire.CodeVerifyFailed,
				Message: fmt.Sprintf("refusing to serve a precedence-violating schedule for %q: %v", in.Name, err),
			}, http.StatusInternalServerError
		}
	}
	st.verify = rc.lap()
	set.observe(st)
	rc.st = st
	rc.memo = out.Memo
	fillResponse(resp, in, &out, 0)
	if o.Trace {
		resp.Trace = traceInfoOf(out, st)
		rc.trace = resp.Trace
	}
	return nil, 0
}

// errInfoOf maps engine/solver errors onto typed wire errors.
func errInfoOf(err error) *wire.ErrorInfo {
	switch {
	case errors.Is(err, engine.ErrTimeout):
		return &wire.ErrorInfo{Code: wire.CodeTimeout, Message: err.Error()}
	case errors.Is(err, solver.ErrEdgesUnsupported):
		return &wire.ErrorInfo{Code: wire.CodeBadOptions, Message: err.Error()}
	case errors.Is(err, engine.ErrBadInstance), errors.Is(err, engine.ErrNilInstance):
		return &wire.ErrorInfo{Code: wire.CodeBadInstance, Message: err.Error()}
	default:
		return &wire.ErrorInfo{Code: wire.CodeUnschedulable, Message: err.Error()}
	}
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, engine.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, solver.ErrEdgesUnsupported):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrBadInstance), errors.Is(err, engine.ErrNilInstance):
		return http.StatusBadRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

const (
	// endpointBatch labels /v1/batch in the request counter and the stage
	// histograms; /v1/schedule is "schedule".
	endpointBatch = "batch"
	// retryAfterShed is the Retry-After of a request shed by admission.
	retryAfterShed = "1"
)

// Serve is the byte-level entry of the scheduling endpoints: one request
// body in, one response body out, no http.Request and no ResponseWriter.
// It is the same request path as POST path over HTTP — the HTTP handler is
// read body → this path → write — so status, content type, body bytes and
// Retry-After are identical either way, as are the counters and the request
// log. The response is appended to dst, which the caller owns (pass a
// wire.GetBuffer and put back what comes out); body is only read and never
// retained past the return. An empty reqID is minted here. retryAfter is
// the Retry-After header value of a shed request, empty otherwise. The
// context is unused — a solve is bounded by its timeout, not by its caller —
// and err is always nil: both exist for the routing tier's transports that
// do cross a network.
func (s *Server) Serve(_ context.Context, path, contentType string, body []byte, reqID string, dst []byte) (status int, respType string, out []byte, retryAfter string, err error) {
	if path != wire.PathSchedule && path != wire.PathBatch { // what the mux answers
		return http.StatusNotFound, "text/plain; charset=utf-8", append(dst, "404 page not found\n"...), "", nil
	}
	status, respType, out, retryAfter = s.serve(path, contentType, body, nil, reqID, dst)
	return status, respType, out, retryAfter, nil
}

// handleHTTP is a scheduling endpoint over HTTP: read the body
// (wire.ReadBody), run the request path, write what it returned.
func (s *Server) handleHTTP(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := obs.SetRequestID(w.Header(), r.Header.Get(obs.RequestIDHeader))
		body, readErr := wire.ReadBody(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
		status, respType, out, retryAfter := s.serve(path, r.Header.Get("Content-Type"), body, readErr, id, wire.GetBuffer())
		wire.WriteResponse(w, status, respType, out, retryAfter)
		wire.PutBuffer(body)
		wire.PutBuffer(out)
	}
}

// serve is the one implementation of a scheduling request, shared by the
// HTTP handler and Serve: the observability envelope (request ID, request
// counter, request log) around admit → size cap → decode → options →
// instance → ValidateEdges → solveVerified → encode. The codec is
// negotiated by path and contentType (wire.IsBinary); a binary request gets
// a binary response on every path, errors and admission rejections
// included. bodyErr is the HTTP handler's failed body read, reported as a
// 400 in its place in that order.
func (s *Server) serve(path, contentType string, body []byte, bodyErr error, reqID string, dst []byte) (status int, respType string, out []byte, retryAfter string) {
	rc := reqCtx{id: reqID, endpoint: path[len("/v1/"):], codec: "json", start: time.Now()}
	if rc.id == "" {
		rc.id = obs.NewRequestID()
	}
	binary := wire.IsBinary(path, contentType)
	respType = wire.JSONContentType
	if binary {
		rc.codec, respType = "binary", wire.ContentType
		s.binaryReqs.Inc()
	}
	out, status, errInfo := s.admitAndRun(&rc, binary, body, bodyErr, dst)
	if errInfo != nil {
		if errInfo.Code == wire.CodeQueueFull {
			retryAfter = retryAfterShed
		}
		out = wire.AppendRefusal(dst, binary, errInfo)
	}
	s.finishRequest(&rc, status, time.Since(rc.start))
	return status, respType, out, retryAfter
}

// admitAndRun holds the admission token across one request's decode, solve
// and encode. It returns the encoded success body, or a typed error with
// its HTTP status for serve to encode.
func (s *Server) admitAndRun(rc *reqCtx, binary bool, body []byte, bodyErr error, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	if errInfo, status := s.admit(); errInfo != nil {
		return nil, status, errInfo
	}
	defer s.release()
	if errInfo := wire.BodyError(body, bodyErr, s.cfg.MaxBodyBytes); errInfo != nil {
		return nil, http.StatusBadRequest, errInfo
	}
	switch {
	case rc.endpoint == endpointBatch:
		return s.batch(rc, body, dst)
	case binary:
		return s.scheduleBinary(rc, body, dst)
	default:
		return s.scheduleJSON(rc, body, dst)
	}
}

// scheduleJSON is /v1/schedule over the JSON codec. A body in the
// scanner's subset is walked once (wire.ReadJSONFrame) and takes the frame
// tail both codecs share; any other body is encoding/json's
// (scheduleUnmarshalled).
func (s *Server) scheduleJSON(rc *reqCtx, body, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	f, ok := wire.ReadJSONFrame(body)
	if !ok {
		return s.scheduleUnmarshalled(rc, body, dst)
	}
	s.jsonDecode[wire.PathScan].Inc()
	return s.scheduleFrame(rc, f, false, dst)
}

// scheduleUnmarshalled is scheduleJSON for a body outside the scanner's
// subset, decoded by encoding/json, in the same error order.
func (s *Server) scheduleUnmarshalled(rc *reqCtx, body, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	s.jsonDecode[wire.PathFallback].Inc()
	req, err := wire.UnmarshalScheduleRequest(body)
	if err != nil {
		return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	o, timeout, errInfo := s.resolveOptions(req.Options)
	if errInfo != nil {
		return nil, http.StatusBadRequest, errInfo
	}
	if req.InstanceErr != nil {
		return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: wire.CodeBadInstance, Message: req.InstanceErr.Error()}
	}
	return s.solveAndEncode(rc, req.Instance, req.Graph, o, timeout, lineageOf(req.Options), nil, false, dst)
}

// scheduleBinary is /v1/schedule over the binary codec: a frame the walk
// (wire.ReadFrame) refuses is the undecodable body, and any other takes the
// frame tail both codecs share. A wire/v2 request carries the precedence
// graph; v1 requests decode unchanged and carry none.
func (s *Server) scheduleBinary(rc *reqCtx, body, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	f, err := wire.ReadFrame(body)
	if err != nil {
		return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	return s.scheduleFrame(rc, f, true, dst)
}

// scheduleFrame is /v1/schedule from a walked frame, whichever codec
// walked it, and releases the frame. Errors come in the order both codecs
// keep (docs/SERVICE.md, "Error precedence"): after the undecodable body,
// the options (frameOptions), then the instance the frame decodes to — its
// first invalid task, then its shape — then the graph in solveAndEncode. A
// repeat of a verified hit is answered from the walk alone (byteHit);
// anything else is decoded from the frame, and the frame's workload prefix
// keys the engine's caches so the profiles are hashed once. Every answer
// goes through solveAndEncode, so every plan passed verify.Plan.
func (s *Server) scheduleFrame(rc *reqCtx, f *wire.Frame, binary bool, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	defer f.Release()
	o, timeout, lineage, errInfo := s.frameOptions(f)
	if errInfo != nil {
		return nil, http.StatusBadRequest, errInfo
	}
	if out, ok := s.byteHit(rc, f, binary, o, dst); ok {
		return out, http.StatusOK, nil
	}
	in, graph, err := f.Decode()
	if err != nil {
		return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: wire.CodeBadInstance, Message: err.Error()}
	}
	return s.solveAndEncode(rc, in, graph, o, timeout, lineage, &f.Prefix, binary, dst)
}

// hitCovers reports whether a byte hit may answer a walked request: no
// graph (the full path also checks the edges), no row wider than m (the
// decoder validates the words truncation drops), an m an int holds, and
// options naming no portfolio, no lineage and no trace, which the answer
// would carry.
func hitCovers(f *wire.Frame) bool {
	return !f.Graph && !f.Wide && f.M <= math.MaxInt && f.Portfolio == 0 && len(f.Lineage) == 0 && !f.Trace
}

// byteHit answers a walked request from the bytes of a memo entry: the
// response's head, which carries the request's own name (escaped, in JSON,
// as encoding/json escapes it), then the encoded answer the entry carries
// in the request's codec since its first verified hit in that codec. The
// engine hands those bytes out only after comparing every word of the
// walked workload (prefix, m, n and the rows SameWorkload compares) and of
// the options with the entry's, so they are the bytes the full path would
// write: that path would decode the same words, find the same entry, verify
// the same plan against the same rows and encode the same answer.
//
// It declines — and the full path runs as if it had never been called —
// for a request hitCovers does not cover, for any request without a
// matching entry that carries bytes, and while the verification tests'
// corruption hook is set, since every answer must then pass through it.
// The solve slot is held across the probe and the stage histograms are
// observed, as for any hit: the verify stage reads 0. The head is written
// only once the probe has found the bytes, so a declined request leaves dst
// as it was, and the encode stage times the head and the bytes together.
func (s *Server) byteHit(rc *reqCtx, f *wire.Frame, binary bool, o engine.Options, dst []byte) ([]byte, bool) {
	if s.corrupt != nil || !hitCovers(f) {
		return nil, false
	}
	enc, appendHead := engine.EncodingJSON, wire.AppendJSONResponseHead
	if binary {
		enc, appendHead = engine.EncodingBinary, wire.AppendResponseHead[[]byte]
	}
	var st stageNS
	rc.lap()
	s.slots <- struct{}{}
	st.queue = rc.lap()
	tail := s.eng.MemoBytes(enc, f.Prefix, int(f.M), f.N, o, f.SameWorkload)
	st.solve = rc.lap()
	<-s.slots
	if tail == nil {
		return nil, false
	}
	s.byteHits.Inc()
	rc.solver = solverLabel(o)
	set := s.stages.Get(stageKey{solver: rc.solver, codec: rc.codec})
	set.observe(st)
	rc.st = st
	out := append(appendHead(dst, f.Name), tail...)
	set.encode.Observe(rc.lap() / 1e3)
	return out, true
}

// frameOptions resolves a walked request's options — for the byte hit and
// the full path alike, on either codec — as resolveOptions resolves the
// decoded ones, with the same typed error, and returns the lineage key. A
// known solver name is the registry's own string, so only a portfolio, a
// lineage key or an error allocates.
func (s *Server) frameOptions(f *wire.Frame) (o engine.Options, timeout time.Duration, lineage string, errInfo *wire.ErrorInfo) {
	if !f.Options {
		o, timeout, errInfo = s.resolveOptions(nil)
		return o, timeout, "", errInfo
	}
	ro := wire.RequestOptions{
		Portfolio: f.PortfolioNames(), Eps: f.Eps, Compact: f.Compact, Parallelism: int(f.Parallelism),
		TimeoutMS: f.TimeoutMS, Lineage: string(f.Lineage), Trace: f.Trace,
	}
	var ok bool
	if ro.Solver, ok = solver.Canonical(f.Solver); !ok {
		ro.Solver = string(f.Solver) // resolveOptions names it in its refusal
	}
	o, timeout, errInfo = s.resolveOptions(&ro)
	return o, timeout, ro.Lineage, errInfo
}

// solveAndEncode is the codec-independent tail of /v1/schedule: the graph
// gate, the verified solve, and the response appended to dst. The first
// verified hit of a graphless memo entry in each codec attaches the encoded
// answer — the response minus its head — to the entry, for byteHit; a
// traced answer, which carries the trace, attaches nothing.
func (s *Server) solveAndEncode(rc *reqCtx, in *instance.Instance, graph [][]int, o engine.Options, timeout time.Duration, lineage string, prefix *fphash.Hash, binary bool, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	if graph != nil {
		// The graph is validated here — before the engine is touched — so a
		// hostile graph (cycle, self-edge, out-of-range endpoint, wrong
		// shape) gets its own typed 400 rather than surfacing as a generic
		// bad_instance from engine admission. Requesting a graph with an
		// edge-blind solver is an options error, mapped from the engine's
		// ErrEdgesUnsupported in errInfoOf.
		s.graphReqs.Inc()
		if err := precedence.ValidateEdges(in.N(), graph); err != nil {
			return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: wire.CodeBadGraph, Message: err.Error()}
		}
		o.Edges = graph
	}
	var resp wire.ScheduleResponse // stays in this frame: the encoders only read it
	if errInfo, status := s.solveVerified(in, o, timeout, lineage, prefix, rc, &resp); errInfo != nil {
		return nil, status, errInfo
	}
	var out []byte
	enc, tail := engine.EncodingJSON, wire.JSONResponseTail
	if binary {
		enc, tail = engine.EncodingBinary, wire.ResponseTail
		out = wire.AppendScheduleResponse(dst, &resp)
	} else {
		var err error
		if out, err = wire.AppendJSON(dst, resp); err != nil {
			return nil, http.StatusInternalServerError, encodeError(err)
		}
	}
	if rc.memo != nil && o.Edges == nil && !o.Trace && rc.memo.Encoded(enc) == nil {
		rc.memo.SetEncoded(enc, bytes.Clone(tail(out[len(dst):])))
	}
	rc.set.encode.Observe(rc.lap() / 1e3)
	return out, http.StatusOK, nil
}

// batch is /v1/batch (JSON only).
func (s *Server) batch(rc *reqCtx, body, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	var req wire.BatchRequest
	if err := wire.UnmarshalBody(body, &req); err != nil {
		return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	if len(req.Instances) == 0 {
		return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: wire.CodeBadRequest, Message: "batch has no instances"}
	}
	if len(req.Instances) > s.cfg.MaxBatch {
		return nil, http.StatusBadRequest, &wire.ErrorInfo{
			Code:    wire.CodeBadRequest,
			Message: fmt.Sprintf("batch of %d exceeds the %d-instance cap", len(req.Instances), s.cfg.MaxBatch),
		}
	}
	o, timeout, errInfo := s.resolveOptions(req.Options)
	if errInfo != nil {
		return nil, http.StatusBadRequest, errInfo
	}
	// A batch-level lineage applies to every item; same-lineage items
	// serialise on the lineage's carried state by design (a lineage's
	// re-solves are ordered), so clients wanting fan-out leave it unset.
	lineage := lineageOf(req.Options)

	// Items decode and solve independently: a poisoned instance yields its
	// own typed error and never drops a sibling. The goroutine count here
	// only bounds this request's submission concurrency — actual solves are
	// bounded by the solve slots (Config.Workers) shared with every other
	// request.
	resp := wire.BatchResponse{Results: make([]wire.BatchItem, len(req.Instances))}
	codec := rc.codec // the workers capture the label, not rc, which stays on serve's stack
	workers := runtime.GOMAXPROCS(0)
	if workers > len(req.Instances) {
		workers = len(req.Instances)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Instances) {
					return
				}
				resp.Results[i] = s.batchItem(i, req.Instances[i], o, timeout, lineage, codec)
			}
		}()
	}
	wg.Wait()
	out, err := wire.AppendJSON(dst, resp)
	if err != nil {
		return nil, http.StatusInternalServerError, encodeError(err)
	}
	return out, http.StatusOK, nil
}

func (s *Server) batchItem(i int, raw json.RawMessage, o engine.Options, timeout time.Duration, lineage, codec string) wire.BatchItem {
	in, path, err := wire.DecodeJSONInstance(raw)
	s.jsonDecode[path].Inc()
	if err != nil {
		return wire.BatchItem{Index: i, Error: &wire.ErrorInfo{Code: wire.CodeBadInstance, Message: err.Error()}}
	}
	// Each item gets its own observability context: items solve concurrently,
	// so they must not share the request-level reqCtx, and each observes its
	// own stage timings.
	irc := &reqCtx{endpoint: endpointBatch, codec: codec, start: time.Now()}
	var res wire.ScheduleResponse
	if errInfo, _ := s.solveVerified(in, o, timeout, lineage, nil, irc, &res); errInfo != nil {
		return wire.BatchItem{Index: i, Error: errInfo}
	}
	return wire.BatchItem{Index: i, Result: &res}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	wire.WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, s.Stats())
}

// encodeError is the refusal of a response encoding/json cannot encode.
// Wire types marshal without error by construction; this path exists for
// the type system, not for traffic.
func encodeError(err error) *wire.ErrorInfo {
	return &wire.ErrorInfo{Code: wire.CodeInternal, Message: fmt.Sprintf("encoding response: %v", err)}
}
