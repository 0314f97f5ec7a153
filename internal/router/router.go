// Package router implements msroute, the stateless routing tier in front
// of N msserve scheduler shards. It holds no scheduling state of its own —
// every shard computes bit-identical answers for every workload — so the
// router's only job is locality and load: consistent-hash routing by
// workload fingerprint (lineage override for replanning chains) keeps
// repeated workloads on the shard whose memo, compiled-table and warm
// caches already hold them, and bounded work-stealing lets an idle shard
// claim an overloaded shard's queued requests instead of letting them age.
//
// Topology:
//
//	clients → msroute (this package) → N × msserve shards
//
// Routing rules, in order:
//
//  1. A request with options.lineage routes by the lineage key's hash and
//     is pinned: it is never stolen, because the warm state a lineage
//     chain accumulates lives on exactly one shard and a mid-chain
//     migration would forfeit it (responses would stay bit-identical —
//     pinning protects latency, not correctness).
//  2. Everything else routes by workload fingerprint on a consistent-hash
//     ring (stable vnode positions per backend name, so resharding N→N+1
//     remaps only ~1/(N+1) of fingerprints) and may be stolen by an idle
//     shard when its home queue has backed up.
//
// The router speaks both codecs transparently: binary requests are peeked
// with wire.RouteKey (zero-allocation fingerprint straight off the wire),
// JSON requests are decoded just enough to fingerprint them. Responses
// pass through byte-for-byte; X-Msroute-Backend and X-Msroute-Stolen
// report the serving shard for observability and tests.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/obs"
	"malsched/internal/wire"
)

// Defaults for the zero Config.
const (
	DefaultQueueDepth   = 128
	DefaultWorkers      = 4
	DefaultMaxBodyBytes = 8 << 20
	// stealRetry is how long an idle worker waits between steal scans
	// once its own queues and every other queue are empty.
	stealRetry = time.Millisecond
	// statusClientClosedRequest (nginx's 499) marks a request whose client
	// gave up while it was queued; it is only ever counted and logged.
	statusClientClosedRequest = 499
)

// Backend is one scheduler shard. Name must be stable across router
// restarts and resharding events — it seeds the backend's ring positions,
// and renaming a backend remaps its whole key range. Exactly one of
// Handler (in-process, used by tests and the load harness) or URL (a
// remote msserve base URL) must be set; Handler wins when both are.
type Backend struct {
	Name    string
	Handler http.Handler
	URL     string
}

// Config tunes a Router. The zero value routes with defaultVNodes vnodes
// per backend, DefaultQueueDepth pending requests per shard, DefaultWorkers
// forwarders per shard, and work-stealing on.
type Config struct {
	// Backends are the scheduler shards; at least one is required.
	Backends []Backend
	// VNodes is the number of ring points per backend (≤ 0 means the
	// default). More vnodes smooth the key-range split at the cost of a
	// marginally deeper routing search.
	VNodes int
	// QueueDepth bounds pending requests per shard; a request whose home
	// queue is full is shed with 429 + Retry-After (≤ 0 means default).
	QueueDepth int
	// Workers is the number of forwarding workers per shard (≤ 0 means
	// default). Each worker serves its own shard's queues first and
	// steals from other shards' stealable queues when idle.
	Workers int
	// DisableSteal turns work-stealing off: every request waits for its
	// home shard no matter how uneven the load.
	DisableSteal bool
	// MaxBodyBytes caps request body size; ≤ 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Client is used for URL backends; nil means a default client with no
	// timeout (per-request contexts bound the forwarding instead).
	Client *http.Client
	// Logger, when non-nil, receives structured request logs (log/slog):
	// one line per routed request when LogRequests is set, and a Warn line
	// with the queue/forward breakdown for every request at or above
	// SlowThreshold. Each line carries the request ID minted here or
	// supplied by the client (X-Malsched-Request); the same ID is forwarded
	// to the serving shard, so one grep joins the router's and the shard's
	// view of a request. Nil disables request logging entirely.
	Logger *slog.Logger
	// SlowThreshold flags requests lasting at least this long as slow
	// (logged at Warn); 0 disables the slow path.
	SlowThreshold time.Duration
	// LogRequests logs every routed request at Info, not just slow ones.
	LogRequests bool
}

// Stats snapshots the routing tier for /statsz.
type Stats struct {
	// Schema versions the payload ("statsz/v1"); additive changes only
	// within a version. The drift-guard tests pin the documented key set.
	Schema string `json:"schema"`
	// Routed counts requests admitted to a queue; Rejected those shed
	// because their home queue was full.
	Routed   uint64 `json:"routed"`
	Rejected uint64 `json:"rejected"`
	// LocalServed counts requests served by their home shard, Steals those
	// claimed by another shard's idle worker; LocalityHitRate is
	// LocalServed over all served requests — the number that tells you
	// whether the fleet is sized to its load (stealing is a safety valve,
	// not a steady state).
	LocalServed     uint64  `json:"local_served"`
	Steals          uint64  `json:"steals"`
	LocalityHitRate float64 `json:"locality_hit_rate"`
	// LineagePinned counts requests routed by lineage key (never stolen).
	LineagePinned uint64 `json:"lineage_pinned"`
	// BinaryRequests counts requests peeked via the binary codec.
	BinaryRequests uint64 `json:"binary_requests"`
	// Backends holds one entry per shard, in configuration order.
	Backends []BackendStats `json:"backends"`
}

// BackendStats snapshots one shard's routing counters.
type BackendStats struct {
	Name string `json:"name"`
	// Routed counts requests homed here; Served those this shard's
	// workers processed (its own plus ones it stole); StolenAway requests
	// homed here that an idle peer claimed; StolenServed requests homed
	// elsewhere that this shard claimed.
	Routed       uint64 `json:"routed"`
	Served       uint64 `json:"served"`
	StolenAway   uint64 `json:"stolen_away"`
	StolenServed uint64 `json:"stolen_served"`
	// QueueLen is the current pending depth (pinned + stealable).
	QueueLen int `json:"queue_len"`
	// Errors counts forwarding failures (transport errors, not backend
	// HTTP errors, which pass through to the client).
	Errors uint64 `json:"errors"`
}

// job is one routed request waiting for a forwarding worker.
type job struct {
	ctx         context.Context
	home        int
	pinned      bool
	path        string
	contentType string
	body        []byte
	// reqID is the request ID minted at dispatch (or supplied by the
	// client); the forwarder propagates it to the shard.
	reqID string
	// enqueued timestamps queue entry; the worker's pickup delta is the
	// queue-stage latency.
	enqueued time.Time
	// done receives exactly one result; buffered so a worker never blocks
	// on a client that gave up.
	done chan jobResult
}

type jobResult struct {
	status      int
	contentType string
	body        []byte
	servedBy    int
	stolen      bool
	// queueNS and forwardNS are the job's stage timings, echoed back for
	// the request log.
	queueNS, forwardNS int64
	err                error
}

type backendState struct {
	name    string
	handler http.Handler
	url     string
	// pinned holds lineage-keyed jobs (only this shard's workers drain
	// it); local holds stealable jobs (any idle worker may).
	pinned chan *job
	local  chan *job

	routed       atomic.Uint64
	served       atomic.Uint64
	stolenAway   atomic.Uint64
	stolenServed atomic.Uint64
	errors       atomic.Uint64
}

// Router is the routing tier. Build with New, mount Handler, Close on
// shutdown. Safe for concurrent use.
type Router struct {
	cfg      Config
	ring     *ring
	backends []*backendState
	client   *http.Client
	mux      *http.ServeMux
	stop     chan struct{}

	// metrics is the /metricsz registry. stageSets and reqCounters cache
	// its instruments so the dispatch and forwarding hot paths resolve them
	// with one allocation-free map read under obsMu.
	metrics     *obs.Registry
	obsMu       sync.RWMutex
	stageSets   map[string]*stageSet
	reqCounters map[reqKey]*obs.Counter

	draining   atomic.Bool
	routed     atomic.Uint64
	rejected   atomic.Uint64
	pinnedCnt  atomic.Uint64
	binaryReqs atomic.Uint64
}

// New builds and starts a Router (its forwarding workers run until Close).
func New(cfg Config) (*Router, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	names := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		if b.Handler == nil && b.URL == "" {
			return nil, fmt.Errorf("router: backend %q has neither Handler nor URL", b.Name)
		}
		names[i] = b.Name
	}
	ring, err := newRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		ring:    ring,
		client:  cfg.Client,
		mux:     http.NewServeMux(),
		stop:    make(chan struct{}),
		metrics: obs.NewRegistry(),

		stageSets:   make(map[string]*stageSet),
		reqCounters: make(map[reqKey]*obs.Counter),
	}
	if r.client == nil {
		r.client = &http.Client{}
	}
	r.backends = make([]*backendState, len(cfg.Backends))
	for i, b := range cfg.Backends {
		r.backends[i] = &backendState{
			name:    b.Name,
			handler: b.Handler,
			url:     b.URL,
			pinned:  make(chan *job, cfg.QueueDepth),
			local:   make(chan *job, cfg.QueueDepth),
		}
	}
	r.registerMetrics()
	for i := range r.backends {
		for w := 0; w < cfg.Workers; w++ {
			go r.worker(i)
		}
	}
	r.mux.HandleFunc("POST /v1/schedule", func(w http.ResponseWriter, req *http.Request) {
		r.dispatch(w, req, "/v1/schedule")
	})
	r.mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, req *http.Request) {
		r.dispatch(w, req, "/v1/batch")
	})
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /statsz", r.handleStatsz)
	r.mux.Handle("GET /metricsz", r.metrics.Handler())
	return r, nil
}

// Handler returns the routing tier's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// StartDrain flips /healthz to 503 and sheds new requests with a typed
// draining error; queued requests finish. Idempotent.
func (r *Router) StartDrain() { r.draining.Store(true) }

// Close stops the forwarding workers. Pending jobs are completed by the
// worker that already holds them; queued-but-unclaimed jobs are failed
// with a draining error so no client waits forever.
func (r *Router) Close() {
	r.draining.Store(true)
	close(r.stop)
	for _, b := range r.backends {
		for {
			select {
			case j := <-b.pinned:
				j.done <- jobResult{status: http.StatusServiceUnavailable, err: fmt.Errorf("router closed")}
			case j := <-b.local:
				j.done <- jobResult{status: http.StatusServiceUnavailable, err: fmt.Errorf("router closed")}
			default:
				goto next
			}
		}
	next:
	}
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	st := Stats{
		Schema:         StatszSchema,
		Routed:         r.routed.Load(),
		Rejected:       r.rejected.Load(),
		LineagePinned:  r.pinnedCnt.Load(),
		BinaryRequests: r.binaryReqs.Load(),
	}
	for _, b := range r.backends {
		served := b.served.Load()
		stolen := b.stolenServed.Load()
		st.Backends = append(st.Backends, BackendStats{
			Name:         b.name,
			Routed:       b.routed.Load(),
			Served:       served,
			StolenAway:   b.stolenAway.Load(),
			StolenServed: stolen,
			QueueLen:     len(b.pinned) + len(b.local),
			Errors:       b.errors.Load(),
		})
		st.LocalServed += served - stolen
		st.Steals += stolen
	}
	if total := st.LocalServed + st.Steals; total > 0 {
		st.LocalityHitRate = float64(st.LocalServed) / float64(total)
	}
	return st
}

// routeKey computes (key, pinned) for a request body: the lineage hash
// when a lineage key is present (pinned), the workload fingerprint
// otherwise. Batch requests route by their first instance — a batch is
// one admission unit on the shard side too.
func (r *Router) routeKey(path, contentType string, body []byte) (uint64, bool, *wire.ErrorInfo) {
	if contentType == wire.ContentType {
		r.binaryReqs.Add(1)
		key, lineage, err := wire.RouteKey(body)
		if err != nil {
			return 0, false, &wire.ErrorInfo{Code: wire.CodeBadRequest, Message: err.Error()}
		}
		if lineage != "" {
			return hashString(lineage), true, nil
		}
		return key, false, nil
	}
	var opts *wire.RequestOptions
	var rawInstance json.RawMessage
	var graph [][]int
	if path == "/v1/batch" {
		var req wire.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil || len(req.Instances) == 0 {
			return 0, false, &wire.ErrorInfo{Code: wire.CodeBadRequest, Message: "undecodable batch request"}
		}
		opts, rawInstance = req.Options, req.Instances[0]
	} else {
		var req wire.ScheduleRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, false, &wire.ErrorInfo{Code: wire.CodeBadRequest, Message: "undecodable request"}
		}
		opts, rawInstance, graph = req.Options, req.Instance, req.Graph
	}
	if opts != nil && opts.Lineage != "" {
		return hashString(opts.Lineage), true, nil
	}
	in, err := instance.ReadJSON(bytes.NewReader(rawInstance))
	if err != nil {
		return 0, false, &wire.ErrorInfo{Code: wire.CodeBadInstance, Message: err.Error()}
	}
	// The graph is folded into the key (nil folds nothing), so a DAG
	// request never routes to — and never shares warm state with — the
	// shard of its independent projection; wire.RouteKey folds the same
	// stream for binary requests.
	return engine.WorkloadFingerprintDAG(in, graph), false, nil
}

func (r *Router) dispatch(w http.ResponseWriter, req *http.Request, path string) {
	start := time.Now()
	ct := contentTypeOf(req)
	binary := ct == wire.ContentType
	codec, endpoint := "json", path[len("/v1/"):]
	if binary {
		codec = "binary"
	}
	// The request ID is minted here at the edge (or taken from the client),
	// echoed on the response and forwarded to the serving shard, which logs
	// and echoes the same ID — one identifier joins both tiers' views.
	reqID := req.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)
	finish := func(status int, res jobResult) {
		r.finishRequest(reqID, endpoint, codec, status, res, time.Since(start))
	}
	if r.draining.Load() {
		finish(http.StatusServiceUnavailable, jobResult{servedBy: -1})
		r.writeError(w, http.StatusServiceUnavailable, binary,
			&wire.ErrorInfo{Code: wire.CodeDraining, Message: "router is draining; retry against another replica"})
		return
	}
	body, err := readBody(w, req, r.cfg.MaxBodyBytes)
	if err != nil {
		finish(http.StatusBadRequest, jobResult{servedBy: -1})
		r.writeError(w, http.StatusBadRequest, binary,
			&wire.ErrorInfo{Code: wire.CodeBadRequest, Message: fmt.Sprintf("reading request body: %v", err)})
		return
	}
	key, pinned, errInfo := r.routeKey(path, ct, body)
	if errInfo != nil {
		finish(http.StatusBadRequest, jobResult{servedBy: -1})
		r.writeError(w, http.StatusBadRequest, binary, errInfo)
		return
	}
	home := r.ring.route(key)
	b := r.backends[home]
	j := &job{
		ctx:         req.Context(),
		home:        home,
		pinned:      pinned,
		path:        path,
		contentType: ct,
		body:        body,
		reqID:       reqID,
		enqueued:    time.Now(),
		done:        make(chan jobResult, 1),
	}
	q := b.local
	if pinned {
		q = b.pinned
	}
	select {
	case q <- j:
		r.routed.Add(1)
		b.routed.Add(1)
		if pinned {
			r.pinnedCnt.Add(1)
		}
	default:
		r.rejected.Add(1)
		finish(http.StatusTooManyRequests, jobResult{servedBy: -1})
		w.Header().Set("Retry-After", "1")
		r.writeError(w, http.StatusTooManyRequests, binary, &wire.ErrorInfo{
			Code:    wire.CodeQueueFull,
			Message: fmt.Sprintf("shard %s queue full (%d pending); retry after backoff", b.name, r.cfg.QueueDepth),
		})
		return
	}
	select {
	case res := <-j.done:
		if res.err != nil {
			finish(res.status, res)
			r.writeError(w, res.status, binary,
				&wire.ErrorInfo{Code: wire.CodeInternal, Message: res.err.Error()})
			return
		}
		finish(res.status, res)
		w.Header().Set("X-Msroute-Backend", r.backends[res.servedBy].name)
		w.Header().Set("X-Msroute-Stolen", strconv.FormatBool(res.stolen))
		if res.contentType != "" {
			w.Header().Set("Content-Type", res.contentType)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	case <-req.Context().Done():
		// The client gave up; the worker that picks the job up will see
		// the dead context and drop it cheaply. Nobody reads a response, but
		// the request still counts: 499, the conventional "client closed
		// request" status, keeps it on the books and in the request log.
		finish(statusClientClosedRequest, jobResult{servedBy: -1})
	}
}

// readBody reads the whole request body under the size cap. A declared
// Content-Length pre-sizes one buffer (with bytes.MinRead of slack, so the
// read that finds EOF does not grow it) in place of io.ReadAll's growth
// series; the buffer is not pooled because the body's lifetime crosses the
// hand-off to a forwarding worker.
func readBody(w http.ResponseWriter, req *http.Request, maxBytes int64) ([]byte, error) {
	rd := http.MaxBytesReader(w, req.Body, maxBytes)
	if cl := req.ContentLength; cl > 0 && cl <= maxBytes {
		buf := bytes.NewBuffer(make([]byte, 0, cl+bytes.MinRead))
		_, err := buf.ReadFrom(rd)
		return buf.Bytes(), err
	}
	return io.ReadAll(rd)
}

// worker forwards jobs for shard i: its own pinned and stealable queues
// first, then — when idle and stealing is on — other shards' stealable
// queues. The pinned queue is deliberately invisible to thieves.
func (r *Router) worker(i int) {
	b := r.backends[i]
	var timer *time.Timer
	for {
		// Fast path: own work, no timer armed.
		select {
		case j := <-b.pinned:
			r.serve(i, j)
			continue
		case j := <-b.local:
			r.serve(i, j)
			continue
		case <-r.stop:
			return
		default:
		}
		if !r.cfg.DisableSteal && r.trySteal(i) {
			continue
		}
		// Idle: block on own queues, waking periodically to re-scan for
		// stealable backlog elsewhere.
		if timer == nil {
			timer = time.NewTimer(stealRetry)
		} else {
			timer.Reset(stealRetry)
		}
		select {
		case j := <-b.pinned:
			r.serve(i, j)
		case j := <-b.local:
			r.serve(i, j)
		case <-timer.C:
			continue
		case <-r.stop:
			timer.Stop()
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// trySteal claims one queued stealable job from another shard.
func (r *Router) trySteal(i int) bool {
	n := len(r.backends)
	for d := 1; d < n; d++ {
		v := r.backends[(i+d)%n]
		select {
		case j := <-v.local:
			v.stolenAway.Add(1)
			r.serve(i, j)
			return true
		default:
		}
	}
	return false
}

// serve forwards one job to backend i and completes it.
func (r *Router) serve(i int, j *job) {
	b := r.backends[i]
	stolen := i != j.home
	queueNS := time.Since(j.enqueued).Nanoseconds()
	if err := j.ctx.Err(); err != nil {
		// Client already gone — don't burn a backend solve on it.
		j.done <- jobResult{status: http.StatusServiceUnavailable, servedBy: i, stolen: stolen, queueNS: queueNS, err: err}
		return
	}
	b.served.Add(1)
	if stolen {
		b.stolenServed.Add(1)
	}
	t := time.Now()
	status, ct, body, err := r.forward(b, j)
	forwardNS := time.Since(t).Nanoseconds()
	set := r.stagesFor(b.name)
	set.queue.Observe(queueNS / 1e3)
	set.forward.Observe(forwardNS / 1e3)
	if err != nil {
		b.errors.Add(1)
		j.done <- jobResult{status: http.StatusBadGateway, servedBy: i, stolen: stolen, queueNS: queueNS, forwardNS: forwardNS, err: err}
		return
	}
	j.done <- jobResult{status: status, contentType: ct, body: body, servedBy: i, stolen: stolen, queueNS: queueNS, forwardNS: forwardNS}
}

// forward performs the actual backend call: in-process handler when
// configured, HTTP client otherwise.
func (r *Router) forward(b *backendState, j *job) (int, string, []byte, error) {
	if b.handler != nil {
		req, err := http.NewRequestWithContext(j.ctx, http.MethodPost, j.path, bytes.NewReader(j.body))
		if err != nil {
			return 0, "", nil, err
		}
		req.Header.Set("Content-Type", j.contentType)
		req.Header.Set(obs.RequestIDHeader, j.reqID)
		rec := &responseRecorder{header: make(http.Header), status: http.StatusOK}
		b.handler.ServeHTTP(rec, req)
		return rec.status, rec.header.Get("Content-Type"), rec.body.Bytes(), nil
	}
	req, err := http.NewRequestWithContext(j.ctx, http.MethodPost, b.url+j.path, bytes.NewReader(j.body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", j.contentType)
	req.Header.Set(obs.RequestIDHeader, j.reqID)
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body, nil
}

// responseRecorder captures an in-process backend's response.
type responseRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.header }
func (r *responseRecorder) WriteHeader(s int)   { r.status = s }
func (r *responseRecorder) Write(p []byte) (int, error) {
	return r.body.Write(p)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (r *Router) handleStatsz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats())
}

func (r *Router) writeError(w http.ResponseWriter, status int, binary bool, info *wire.ErrorInfo) {
	if binary {
		buf := wire.AppendError(wire.GetBuffer(), &wire.ErrorBody{Error: *info})
		w.Header().Set("Content-Type", wire.ContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		w.WriteHeader(status)
		_, _ = w.Write(buf)
		wire.PutBuffer(buf)
		return
	}
	writeJSON(w, status, wire.ErrorBody{Error: *info})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	_, _ = w.Write(buf)
}

// contentTypeOf strips media-type parameters.
func contentTypeOf(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			return ct[:i]
		}
	}
	return ct
}
