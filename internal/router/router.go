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
// The router keys a request and forwards it; it never judges one. Binary
// requests and JSON schedule requests are walked into one pooled frame
// (wire.ReadFrame, the walk behind wire.RouteKey, and wire.ReadJSONFrame):
// a fingerprint straight off the wire, no allocation. Any other JSON body
// goes through the shards' own encoding/json decoder (wire). A body
// it cannot key routes by a hash of its bytes, and the shard alone answers
// for a request's content: its refusal, like every response, passes
// through byte-for-byte, a shedding shard's Retry-After included. The
// router refuses only what no shard answered — draining, a full queue, a
// body past its cap, a failed forward — and negotiates the codec and
// encodes the refusal by the shards' own rules (wire.IsBinary,
// wire.AppendRefusal, wire.WriteResponse). X-Msroute-Backend and
// X-Msroute-Stolen report the serving shard for observability and tests.
//
// Dispatch: every shard has Config.Workers forwarding slots. A request
// whose home shard has a free slot and nothing queued ahead of it is
// forwarded on the caller's goroutine; only otherwise does it enter the
// shard's bounded queue, where the shard's drainers — and, for stealable
// requests, idle peers' — pick it up as slots free. A drainer takes a slot
// before it takes a job, so a job leaves its queue only when it can start.
// The hop itself goes through the byte-level transport seam (transport.go):
// a method call into an in-process shard, an HTTP round trip to a remote one.
package router

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"malsched/internal/engine"
	"malsched/internal/obs"
	"malsched/internal/wire"
)

// Defaults for the zero Config.
const (
	DefaultQueueDepth   = 128
	DefaultWorkers      = 4
	DefaultMaxBodyBytes = 8 << 20
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
// per backend, DefaultQueueDepth pending requests per shard and
// DefaultWorkers concurrent forwards per shard.
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
	// Workers bounds concurrent forwards per shard (≤ 0 means default): a
	// shard has this many forwarding slots. A request takes one on its
	// caller's goroutine when one is free and nothing is queued ahead of it;
	// queued requests are forwarded by the shard's drainers (as many as
	// slots), which serve their own shard's queues first and steal from
	// other shards' stealable queues with a slot to spare.
	Workers int
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
	// Routed counts requests admitted to a shard (forwarded at once or
	// queued); Rejected those shed because their home queue was full.
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
	// BinaryRequests counts /v1/schedule requests peeked via the binary
	// codec.
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

// call is one routed request: what a transport needs to forward it.
type call struct {
	ctx         context.Context
	home        int
	path        string
	contentType string
	body        []byte
	// reqID is the request ID minted at dispatch (or supplied by the
	// client); the transport propagates it to the shard.
	reqID string
	// start is the request's one wall-clock read at dispatch; every stage
	// boundary after it is a monotonic time.Since(start).
	start time.Time
}

// job is a call waiting in a shard's queue for a forwarding slot.
type job struct {
	call
	// enqueued is the request's age at queue entry; its age at the
	// drainer's pickup minus this is the queue-stage latency.
	enqueued time.Duration
	// done receives exactly one result; buffered so a drainer never blocks
	// on a client that gave up.
	done chan jobResult
}

type jobResult struct {
	status      int
	contentType string
	// body is the response in a wire pooled buffer the receiver puts back.
	body       []byte
	retryAfter string
	servedBy   int
	stolen     bool
	// inline reports a request forwarded on its caller's goroutine.
	inline bool
	// queueNS and forwardNS are the job's stage timings, echoed back for
	// the request log.
	queueNS, forwardNS int64
	err                error
}

type backendState struct {
	name string
	// nameHdr is the X-Msroute-Backend value of every response this shard
	// serves, built once.
	nameHdr []string
	tr      transport
	// slots bounds concurrent forwards to this shard (Config.Workers): a
	// token per forward in flight, inline or drained.
	slots chan struct{}
	// pinned holds lineage-keyed jobs (only this shard's drainers take
	// them); local holds stealable jobs (any shard's drainer with a slot
	// may).
	pinned chan *job
	local  chan *job
	// wake rouses this shard's idle drainers: a token per enqueue they
	// should look at, dropped when Config.Workers are already pending —
	// every drainer is then due to wake and each drains until it finds
	// nothing.
	wake chan struct{}

	// The backend's books and stage histograms, labeled backend=name in the
	// router's registry.
	routed, served, stolenAway, stolenServed, errors *obs.Counter
	queueLat, forwardLat                             *obs.Histogram
}

// signal rouses one idle drainer of b, if one is not already due.
func (b *backendState) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// Router is the routing tier. Build with New, mount Handler, Close on
// shutdown. Safe for concurrent use.
type Router struct {
	cfg      Config
	ring     *ring
	backends []*backendState
	mux      *http.ServeMux
	stop     chan struct{}

	// metrics is the /metricsz registry and the router's only set of books:
	// /statsz reads the same instruments. requests resolves the per-request
	// label combinations; the rest are resolved once at New.
	metrics    *obs.Registry
	requests   *obs.Vec[reqKey, *obs.Counter]
	jsonDecode [wire.NumDecodePaths]*obs.Counter

	inlineCnt, queuedCnt, rejected, pinnedCnt, binaryReqs *obs.Counter

	draining atomic.Bool
}

// New builds and starts a Router (its drainers run until Close).
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
		mux:     http.NewServeMux(),
		stop:    make(chan struct{}),
		metrics: obs.NewRegistry(),
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	r.backends = make([]*backendState, len(cfg.Backends))
	for i, b := range cfg.Backends {
		r.backends[i] = &backendState{
			name:    b.Name,
			nameHdr: []string{b.Name},
			tr:      newTransport(b, client),
			slots:   make(chan struct{}, cfg.Workers),
			pinned:  make(chan *job, cfg.QueueDepth),
			local:   make(chan *job, cfg.QueueDepth),
			wake:    make(chan struct{}, cfg.Workers),
		}
	}
	r.registerMetrics()
	for i := range r.backends {
		for w := 0; w < cfg.Workers; w++ {
			go r.drainer(i)
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

// Close stops the drainers. A forward in flight runs to completion;
// queued-but-unclaimed jobs are failed with a draining error so no client
// waits forever.
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
		Rejected:       r.rejected.Value(),
		LineagePinned:  r.pinnedCnt.Value(),
		BinaryRequests: r.binaryReqs.Value(),
	}
	for _, b := range r.backends {
		routed := b.routed.Value()
		served := b.served.Value()
		stolen := b.stolenServed.Value()
		st.Backends = append(st.Backends, BackendStats{
			Name:         b.name,
			Routed:       routed,
			Served:       served,
			StolenAway:   b.stolenAway.Value(),
			StolenServed: stolen,
			QueueLen:     len(b.pinned) + len(b.local),
			Errors:       b.errors.Value(),
		})
		st.Routed += routed
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
// one admission unit on the shard side too. A binary body and a JSON
// schedule body in the scanner's subset are keyed by their walk
// (wire.ReadFrame, wire.ReadJSONFrame): it builds no instance, copies no
// lineage key out, and keys an invalid instance by its words, as the walk
// keys before anything validates. Other JSON bodies decode through the
// shards' own encoding/json path. A body it cannot key — a frame the walk
// refuses, an undecodable JSON body, an invalid decoded instance, an empty
// batch — routes by a hash of its own bytes: the shard it lands on answers
// for it.
func (r *Router) routeKey(path string, binary bool, body []byte) (key uint64, pinned bool) {
	var f *wire.Frame
	if binary {
		r.binaryReqs.Inc()
		var err error
		if f, err = wire.ReadFrame(body); err != nil {
			return hashString(body), false
		}
	} else if path == wire.PathSchedule {
		var ok bool
		if f, ok = wire.ReadJSONFrame(body); ok {
			r.jsonDecode[wire.PathScan].Inc()
		}
	}
	if f != nil {
		key, pinned = f.RouteKey(), len(f.Lineage) > 0
		if pinned {
			key = hashString(f.Lineage)
		}
		f.Release()
		return key, pinned
	}
	var req wire.JSONRequest
	var err error
	decodePath := wire.PathFallback
	if path == wire.PathSchedule {
		req, err = wire.UnmarshalScheduleRequest(body)
	} else {
		req, decodePath, err = wire.DecodeJSONBatchHead(body)
	}
	r.jsonDecode[decodePath].Inc()
	switch {
	case err == nil && req.Options != nil && req.Options.Lineage != "":
		return hashString(req.Options.Lineage), true
	case err != nil || req.InstanceErr != nil:
		return hashString(body), false
	}
	// The graph is folded into the key (nil folds nothing), so a DAG
	// request never routes to — and never shares warm state with — the
	// shard of its independent projection; the walks fold the same stream.
	return engine.WorkloadFingerprintDAG(req.Instance, req.Graph), false
}

// The X-Msroute-Stolen values, built once: assigning one into a header map
// allocates nothing.
var hdrStolen, hdrNotStolen = []string{"true"}, []string{"false"}

func (r *Router) dispatch(w http.ResponseWriter, req *http.Request, path string) {
	start := time.Now()
	ct := req.Header.Get("Content-Type")
	binary := wire.IsBinary(path, ct)
	codec, endpoint, respType := "json", path[len("/v1/"):], wire.JSONContentType
	if binary {
		codec, respType = "binary", wire.ContentType
	}
	// The request ID is minted here at the edge (or taken from the client),
	// echoed on the response and forwarded to the serving shard, which logs
	// and echoes the same ID — one identifier joins both tiers' views.
	reqID := obs.SetRequestID(w.Header(), req.Header.Get(obs.RequestIDHeader))
	// refuse answers a request no shard answered — res carries its status,
	// Retry-After and, for a failed forward, the shard it was sent to — as a
	// shard words a refusal.
	refuse := func(res jobResult, info *wire.ErrorInfo) {
		r.finishRequest(reqID, endpoint, codec, res.status, res, time.Since(start))
		out := wire.AppendRefusal(wire.GetBuffer(), binary, info)
		wire.WriteResponse(w, res.status, respType, out, res.retryAfter)
		wire.PutBuffer(out)
	}
	if r.draining.Load() {
		refuse(jobResult{status: http.StatusServiceUnavailable, servedBy: -1},
			&wire.ErrorInfo{Code: wire.CodeDraining, Message: "router is draining; retry against another replica"})
		return
	}
	body, err := wire.ReadBody(req.Body, req.ContentLength, r.cfg.MaxBodyBytes)
	if errInfo := wire.BodyError(body, err, r.cfg.MaxBodyBytes); errInfo != nil {
		wire.PutBuffer(body)
		refuse(jobResult{status: http.StatusBadRequest, servedBy: -1}, errInfo)
		return
	}
	key, pinned := r.routeKey(path, binary, body)
	home := r.ring.route(key)
	b := r.backends[home]
	c := call{ctx: req.Context(), home: home, path: path, contentType: ct, body: body, reqID: reqID, start: start}

	var res jobResult
	if b.tryInline(pinned) {
		// The home shard has a slot and nobody is waiting for it: forward on
		// this goroutine. The request is on the same books as a queued one,
		// with a queue wait of zero.
		r.admitted(b, pinned)
		r.inlineCnt.Inc()
		res = r.forward(home, &c, 0, time.Since(start), wire.GetBuffer())
		res.inline = true
		r.release(home)
	} else {
		j := &job{call: c, enqueued: time.Since(start), done: make(chan jobResult, 1)}
		q := b.local
		if pinned {
			q = b.pinned
		}
		select {
		case q <- j:
			r.admitted(b, pinned)
			r.queuedCnt.Inc()
			r.wakeFor(home, pinned)
		default:
			r.rejected.Inc()
			wire.PutBuffer(body)
			refuse(jobResult{status: http.StatusTooManyRequests, servedBy: -1, retryAfter: "1"}, &wire.ErrorInfo{
				Code:    wire.CodeQueueFull,
				Message: fmt.Sprintf("shard %s queue full (%d pending); retry after backoff", b.name, r.cfg.QueueDepth),
			})
			return
		}
		select {
		case res = <-j.done:
		case <-req.Context().Done():
			// The client gave up; the drainer that picks the job up will see
			// the dead context and drop it cheaply. Nobody reads a response,
			// but the request still counts: 499, the conventional "client
			// closed request" status, keeps it on the books and in the request
			// log. The body stays out of the pool — the drainer may yet read it.
			r.finishRequest(reqID, endpoint, codec, statusClientClosedRequest, jobResult{servedBy: -1}, time.Since(start))
			return
		}
	}
	if res.err != nil {
		// The forward failed: the router's one refusal after admission.
		wire.PutBuffer(body)
		refuse(res, &wire.ErrorInfo{Code: wire.CodeInternal, Message: res.err.Error()})
		return
	}
	r.finishRequest(reqID, endpoint, codec, res.status, res, time.Since(start))
	h := w.Header()
	h["X-Msroute-Backend"] = r.backends[res.servedBy].nameHdr
	h["X-Msroute-Stolen"] = hdrNotStolen
	if res.stolen {
		h["X-Msroute-Stolen"] = hdrStolen
	}
	wire.WriteResponse(w, res.status, res.contentType, res.body, res.retryAfter)
	wire.PutBuffer(res.body)
	wire.PutBuffer(body)
}

// admitted books a request onto its home shard.
func (r *Router) admitted(b *backendState, pinned bool) {
	b.routed.Inc()
	if pinned {
		r.pinnedCnt.Inc()
	}
}

// tryInline takes one of b's forwarding slots for a request arriving now,
// if one is free and nothing is queued ahead of the request: its pinned
// queue for a lineage request — lineage order holds — and both queues
// otherwise, so stealable requests stay first-in, first-out.
func (b *backendState) tryInline(pinned bool) bool {
	if len(b.pinned) > 0 || (!pinned && len(b.local) > 0) {
		return false
	}
	select {
	case b.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// release hands back a slot of shard i taken by tryInline. No drainer saw
// the slot free up, so if a peer has stealable backlog one is roused to
// look. (The shard's own backlog needs no signal — whoever enqueued it
// roused a drainer, which is blocked on this very slot — and gets a
// harmless one.)
func (r *Router) release(i int) {
	b := r.backends[i]
	<-b.slots
	if r.pending(i) {
		b.signal()
	}
}

// pending reports whether a job that shard i may serve is queued: in its
// own queues or in a peer's stealable queue.
func (r *Router) pending(i int) bool {
	b := r.backends[i]
	if len(b.pinned) > 0 || len(b.local) > 0 {
		return true
	}
	for _, v := range r.backends {
		if v != b && len(v.local) > 0 {
			return true
		}
	}
	return false
}

// wakeFor rouses drainers for a job just queued on shard home: its own
// shard's always — one of them blocks on the next slot to free — and, for a
// stealable job, the first peer with a slot to spare, which can start it
// now.
func (r *Router) wakeFor(home int, pinned bool) {
	r.backends[home].signal()
	if pinned {
		return
	}
	n := len(r.backends)
	for d := 1; d < n; d++ {
		if v := r.backends[(home+d)%n]; len(v.slots) < cap(v.slots) {
			v.signal()
			return
		}
	}
}

// drainer forwards queued jobs for shard i. It sleeps until an enqueue (or
// an inline request leaving a stealable backlog behind) signals the shard,
// then serves while anything is pending: a slot first, then a job — own
// pinned queue, own stealable queue, then other shards' stealable
// queues. The pinned queue is deliberately invisible to thieves.
// The slot goes back before the result goes out, so a caller that sends its
// next request the moment it has this answer finds the slot free.
func (r *Router) drainer(i int) {
	b := r.backends[i]
	for {
		select {
		case <-b.wake:
		case <-r.stop:
			return
		}
		for r.pending(i) {
			select {
			case b.slots <- struct{}{}:
			case <-r.stop:
				return
			}
			j := r.take(i)
			if j == nil { // a peer got there first
				<-b.slots
				break
			}
			picked := time.Since(j.start)
			res := r.forward(i, &j.call, int64(picked-j.enqueued), picked, wire.GetBuffer())
			<-b.slots
			j.done <- res
		}
	}
}

// take claims the next queued job shard i may serve, without blocking.
func (r *Router) take(i int) *job {
	b := r.backends[i]
	select {
	case j := <-b.pinned:
		return j
	default:
	}
	select {
	case j := <-b.local:
		return j
	default:
	}
	n := len(r.backends)
	for d := 1; d < n; d++ {
		v := r.backends[(i+d)%n]
		select {
		case j := <-v.local:
			v.stolenAway.Inc()
			return j
		default:
		}
	}
	return nil
}

// forward sends one call to shard i — whose slot the caller holds — and
// reports the outcome. from is the call's age as the forward begins, so the
// forward stage costs one clock read at its end. The response is appended
// to dst and travels in the result; on failure dst goes back to the pool
// here.
func (r *Router) forward(i int, c *call, queueNS int64, from time.Duration, dst []byte) jobResult {
	b := r.backends[i]
	res := jobResult{servedBy: i, stolen: i != c.home, queueNS: queueNS}
	if err := c.ctx.Err(); err != nil {
		// Client already gone — don't burn a backend solve on it.
		wire.PutBuffer(dst)
		res.status, res.err = http.StatusServiceUnavailable, err
		return res
	}
	b.served.Inc()
	if res.stolen {
		b.stolenServed.Inc()
	}
	status, ct, out, retryAfter, err := b.tr.Serve(c.ctx, c.path, c.contentType, c.body, c.reqID, dst)
	res.forwardNS = int64(time.Since(c.start) - from)
	b.queueLat.Observe(queueNS / 1e3)
	b.forwardLat.Observe(res.forwardNS / 1e3)
	if err != nil {
		b.errors.Inc()
		wire.PutBuffer(out)
		res.status, res.err = http.StatusBadGateway, err
		return res
	}
	res.status, res.contentType, res.body, res.retryAfter = status, ct, out, retryAfter
	return res
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (r *Router) handleStatsz(w http.ResponseWriter, req *http.Request) {
	wire.WriteJSON(w, http.StatusOK, r.Stats())
}
