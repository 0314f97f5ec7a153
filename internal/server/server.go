// Package server implements msserve, the production HTTP/JSON scheduling
// service over the batch engine: a bounded admission queue in front of one
// engine, per-request solver selection validated against the registry, and
// verify.Plan enforced on every response path — the server never vouches
// for a schedule it has not independently re-checked.
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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"malsched/internal/engine"
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

	accepted, rejected, verifyFail, binaryReqs, graphReqs *obs.Counter

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
	s.mux.HandleFunc("POST "+pathSchedule, s.handleHTTP(endpointSchedule))
	s.mux.HandleFunc("POST "+pathBatch, s.handleHTTP(endpointBatch))
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
// with verify.Plan before anything is released to the caller. It returns
// either a response or a typed error with its HTTP status.
//
// The engine hashes the profiles once, inside the solve slot: the memo key,
// and forked from its workload prefix the compiled-cache key, so renamed
// copies of the same workload under the same options hit the memo. A
// request with a lineage key solves against the lineage's carried warm
// state instead, found by the key's hash: consecutive residuals of one
// replanning client have different fingerprints. The engine probes its
// memo first and resolves the compiled λ-breakpoint tables only after a
// miss, through its compiled-instance cache — /v1/batch items of a
// repeated shape and memo-miss re-solves under different options share one
// set of tables, and a memo hit pays for none. The solve slots bound
// concurrency to Config.Workers across all requests, compilation included.
func (s *Server) solveVerified(in *instance.Instance, o engine.Options, timeout time.Duration, lineage string, rc *reqCtx) (*wire.ScheduleResponse, *wire.ErrorInfo, int) {
	warm := lineage != "" && engine.WantsCompiled(o)
	rc.solver = solverLabel(o)
	var st stageNS
	t := time.Now()
	s.slots <- struct{}{}
	st.queue = time.Since(t).Nanoseconds()
	var out engine.Outcome
	t = time.Now()
	if warm {
		out = s.eng.ScheduleWarm(in, nil, o, timeout, s.eng.WarmFor(lineageHash(lineage)))
	} else {
		out = s.eng.ScheduleWith(in, o, timeout)
	}
	// The engine reports the table resolution it did inside the call (0 on
	// a memo hit); the rest of the call is the solve stage.
	st.compile = out.CompileNS
	st.solve = time.Since(t).Nanoseconds() - st.compile
	<-s.slots
	set := s.stages.Get(stageKey{solver: rc.solver, codec: rc.codec})
	rc.set = set
	if out.Err != nil {
		set.observe(st)
		rc.st = st
		return nil, errInfoOf(out.Err), statusOf(out.Err)
	}
	if s.corrupt != nil {
		s.corrupt(&out.Solution)
	}
	t = time.Now()
	c := verify.Certified{Plan: out.Plan, Makespan: out.Makespan, LowerBound: out.LowerBound}
	if err := verify.Plan(in, c, false); err != nil {
		s.verifyFail.Inc()
		st.verify = time.Since(t).Nanoseconds()
		set.observe(st)
		rc.st = st
		return nil, &wire.ErrorInfo{
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
			st.verify = time.Since(t).Nanoseconds()
			set.observe(st)
			rc.st = st
			return nil, &wire.ErrorInfo{
				Code:    wire.CodeVerifyFailed,
				Message: fmt.Sprintf("refusing to serve a precedence-violating schedule for %q: %v", in.Name, err),
			}, http.StatusInternalServerError
		}
	}
	st.verify = time.Since(t).Nanoseconds()
	set.observe(st)
	rc.st = st
	resp := ResponseOf(in, out, 0)
	if o.Trace {
		resp.Trace = traceInfoOf(out, st)
		rc.trace = resp.Trace
	}
	return resp, nil, 0
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

// The scheduling endpoints, as the mux and the byte-level entry name them.
const (
	pathSchedule     = "/v1/schedule"
	pathBatch        = "/v1/batch"
	endpointSchedule = "schedule"
	endpointBatch    = "batch"

	jsonContentType = "application/json"
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
	var endpoint string
	switch path {
	case pathSchedule:
		endpoint = endpointSchedule
	case pathBatch:
		endpoint = endpointBatch
	default: // what the mux answers
		return http.StatusNotFound, "text/plain; charset=utf-8", append(dst, "404 page not found\n"...), "", nil
	}
	status, respType, out, retryAfter = s.serve(endpoint, contentType, body, nil, reqID, dst)
	return status, respType, out, retryAfter, nil
}

// handleHTTP is a scheduling endpoint over HTTP: read the body (one byte
// past the cap at most, so the request path can tell an oversized body from
// a full one), run the request path, write what it returned.
func (s *Server) handleHTTP(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)
		limit := s.cfg.MaxBodyBytes + 1
		body, readErr := wire.ReadAll(wire.GetBuffer(), io.LimitReader(r.Body, limit), min(r.ContentLength, limit))
		status, respType, out, retryAfter := s.serve(endpoint, r.Header.Get("Content-Type"), body, readErr, id, wire.GetBuffer())
		writeResponse(w, status, respType, out, retryAfter)
		wire.PutBuffer(body)
		wire.PutBuffer(out)
	}
}

// serve is the one implementation of a scheduling request, shared by the
// HTTP handler and Serve: the observability envelope (request ID, request
// counter, request log) around admit → size cap → decode → resolveOptions →
// ValidateEdges → solveVerified → encode. The codec is negotiated by
// contentType; a binary request gets a binary response on every path,
// errors and admission rejections included. bodyErr is the HTTP handler's
// failed body read, reported as a 400 in its place in that order.
func (s *Server) serve(endpoint, contentType string, body []byte, bodyErr error, reqID string, dst []byte) (status int, respType string, out []byte, retryAfter string) {
	rc := reqCtx{id: reqID, endpoint: endpoint, codec: "json", start: time.Now()}
	if rc.id == "" {
		rc.id = obs.NewRequestID()
	}
	// The batch path is JSON-only; the binary codec covers /v1/schedule.
	binary := endpoint == endpointSchedule && isBinary(contentType)
	respType = jsonContentType
	if binary {
		rc.codec, respType = "binary", wire.ContentType
		s.binaryReqs.Inc()
	}
	out, status, errInfo := s.admitAndRun(&rc, binary, body, bodyErr, dst)
	if errInfo != nil {
		if errInfo.Code == wire.CodeQueueFull {
			retryAfter = retryAfterShed
		}
		out = appendError(dst, binary, errInfo)
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
	switch {
	case bodyErr != nil:
		return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: wire.CodeBadRequest, Message: fmt.Sprintf("reading request body: %v", bodyErr)}
	case int64(len(body)) > s.cfg.MaxBodyBytes:
		return nil, http.StatusBadRequest, &wire.ErrorInfo{
			Code:    wire.CodeBadRequest,
			Message: fmt.Sprintf("request body exceeds the %d-byte cap", s.cfg.MaxBodyBytes),
		}
	case rc.endpoint == endpointBatch:
		return s.batch(rc, body, dst)
	case binary:
		return s.scheduleBinary(rc, body, dst)
	default:
		return s.scheduleJSON(rc, body, dst)
	}
}

// scheduleJSON is /v1/schedule over the JSON codec. Errors keep the order
// they have always had: an undecodable body, then the options, then the
// instance (which is why the decode holds its instance verdict), then the
// graph in solveAndEncode.
func (s *Server) scheduleJSON(rc *reqCtx, body, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	req, path, err := wire.DecodeJSONScheduleRequest(body)
	s.jsonDecode[path].Inc()
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
	return s.solveAndEncode(rc, req.Instance, req.Graph, o, timeout, lineageOf(req.Options), false, dst)
}

// scheduleBinary is /v1/schedule over the binary codec: the same
// validation, solve and verify pipeline as the JSON path — solveAndEncode
// is shared, so every binary response carries a plan that passed
// verify.Plan — with the request decoded and the response encoded through
// internal/wire, no reflection and no per-request encoder state. A wire/v2
// request carries the precedence graph; v1 requests decode unchanged and
// carry none.
func (s *Server) scheduleBinary(rc *reqCtx, body, dst []byte) ([]byte, int, *wire.ErrorInfo) {
	in, graph, ro, err := wire.DecodeScheduleRequest(body)
	if err != nil {
		code := wire.CodeBadInstance
		if isFramingErr(err) {
			code = wire.CodeBadRequest
		}
		return nil, http.StatusBadRequest, &wire.ErrorInfo{Code: code, Message: err.Error()}
	}
	o, timeout, errInfo := s.resolveOptions(ro)
	if errInfo != nil {
		return nil, http.StatusBadRequest, errInfo
	}
	return s.solveAndEncode(rc, in, graph, o, timeout, lineageOf(ro), true, dst)
}

// solveAndEncode is the codec-independent tail of /v1/schedule: the graph
// gate, the verified solve, and the response appended to dst.
func (s *Server) solveAndEncode(rc *reqCtx, in *instance.Instance, graph [][]int, o engine.Options, timeout time.Duration, lineage string, binary bool, dst []byte) ([]byte, int, *wire.ErrorInfo) {
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
	resp, errInfo, status := s.solveVerified(in, o, timeout, lineage, rc)
	if errInfo != nil {
		return nil, status, errInfo
	}
	t := time.Now()
	var out []byte
	if binary {
		out = wire.AppendScheduleResponse(dst, resp)
	} else if out, errInfo = appendJSON(dst, resp); errInfo != nil {
		return nil, http.StatusInternalServerError, errInfo
	}
	rc.set.encode.Observe(time.Since(t).Microseconds())
	return out, http.StatusOK, nil
}

// isBinary reports whether a Content-Type negotiates the binary codec
// (parameters ignored).
func isBinary(contentType string) bool {
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	return strings.TrimSpace(contentType) == wire.ContentType
}

// isFramingErr separates malformed binary framing (bad_request, like
// undecodable JSON) from a well-framed but invalid instance
// (bad_instance), keeping the two codecs' error taxonomy aligned.
func isFramingErr(err error) bool {
	return errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrTooLarge) ||
		errors.Is(err, wire.ErrBadMagic) || errors.Is(err, wire.ErrBadVersion) ||
		errors.Is(err, wire.ErrBadKind)
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
	out, errInfo := appendJSON(dst, resp)
	if errInfo != nil {
		return nil, http.StatusInternalServerError, errInfo
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
	irc := &reqCtx{endpoint: "batch", codec: codec}
	res, errInfo, _ := s.solveVerified(in, o, timeout, lineage, irc)
	if errInfo != nil {
		return wire.BatchItem{Index: i, Error: errInfo}
	}
	return wire.BatchItem{Index: i, Result: res}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// appendWriter is the io.Writer json.Encoder needs over an append target.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// appendJSON appends v's JSON encoding (newline-terminated, as
// json.Encoder writes it) to dst.
func appendJSON(dst []byte, v any) ([]byte, *wire.ErrorInfo) {
	w := appendWriter{b: dst}
	if err := json.NewEncoder(&w).Encode(v); err != nil {
		// Wire types marshal without error by construction; this path
		// exists for the type system, not for traffic.
		return nil, &wire.ErrorInfo{Code: wire.CodeInternal, Message: fmt.Sprintf("encoding response: %v", err)}
	}
	return w.b, nil
}

// appendError appends a typed error body in the request's codec: same
// codes either way, binary framing for binary-negotiated requests.
func appendError(dst []byte, binary bool, info *wire.ErrorInfo) []byte {
	body := wire.ErrorBody{Error: *info}
	if binary {
		return wire.AppendError(dst, &body)
	}
	out, _ := appendJSON(dst, body) // an ErrorBody is two strings: it cannot fail to marshal
	return out
}

// writeResponse writes one response with an exact Content-Length.
func writeResponse(w http.ResponseWriter, status int, contentType string, body []byte, retryAfter string) {
	h := w.Header()
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON serves the admin endpoints' JSON bodies from a pooled buffer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	out, errInfo := appendJSON(wire.GetBuffer(), v)
	if errInfo != nil {
		http.Error(w, errInfo.Message, http.StatusInternalServerError)
		return
	}
	writeResponse(w, status, jsonContentType, out, "")
	wire.PutBuffer(out)
}
