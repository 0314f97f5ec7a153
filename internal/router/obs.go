package router

import (
	"strconv"
	"time"

	"malsched/internal/obs"
	"malsched/internal/wire"
)

// StatszSchema versions the router's /statsz payload; additive changes
// only within a version (the drift-guard tests pin the documented keys).
const StatszSchema = "statsz/v1"

// Metric family names served on GET /metricsz. The router is a proxy, so
// its stage histograms cover queue (enqueue → drainer pickup; 0 for a
// request forwarded inline, which never queued) and forward (the backend
// call); solve-side stages live on the shards' own /metricsz. The full
// catalogue is documented in docs/OBSERVABILITY.md.
const (
	metricRequests      = "msroute_requests_total"
	metricStageLatency  = "msroute_stage_latency_us"
	metricRouted        = "msroute_routed_total"
	metricRejected      = "msroute_rejected_total"
	metricDispatch      = "msroute_dispatch_total"
	metricBinary        = "msroute_binary_requests_total"
	metricBackendRouted = "msroute_backend_routed_total"
	metricServed        = "msroute_backend_served_total"
	metricStolenAway    = "msroute_backend_stolen_away_total"
	metricSteals        = "msroute_steals_total"
	metricPinned        = "msroute_lineage_pinned_total"
	metricQueueLen      = "msroute_queue_len"
	metricErrors        = "msroute_backend_errors_total"
	metricJSONDecode    = "msroute_json_decode_total"
)

// reqKey keys the request-counter Vec.
type reqKey struct {
	endpoint, codec string
	status          int
}

// registerMetrics creates the router's instruments in its registry — the
// one set of books /statsz and /metricsz both read — plus the scrape-time
// views: the routed total (a sum of the dispatch modes) and the queue
// lengths.
func (r *Router) registerMetrics() {
	m := r.metrics
	r.requests = obs.NewVec(func(k reqKey) *obs.Counter {
		return m.Counter(metricRequests, "Routed requests by endpoint, codec and HTTP status.",
			"endpoint", k.endpoint, "codec", k.codec, "status", strconv.Itoa(k.status))
	})
	const dispatchHelp = "Routed requests by dispatch mode: inline on the caller's goroutine, or queued for a drainer."
	r.inlineCnt = m.Counter(metricDispatch, dispatchHelp, "mode", "inline")
	r.queuedCnt = m.Counter(metricDispatch, dispatchHelp, "mode", "queued")
	m.CounterFunc(metricRouted, "Requests admitted to a shard, inline or queued.",
		func() float64 { return float64(r.inlineCnt.Value() + r.queuedCnt.Value()) })
	r.rejected = m.Counter(metricRejected, "Requests shed because their home queue was full.")
	r.pinnedCnt = m.Counter(metricPinned, "Requests routed by lineage key (never stolen).")
	r.binaryReqs = m.Counter(metricBinary, "/v1/schedule requests keyed via the binary codec.")
	const jsonHelp = "JSON requests keyed, by decode path: the request scanner, or encoding/json for a body outside its subset."
	for p := range r.jsonDecode {
		r.jsonDecode[p] = m.Counter(metricJSONDecode, jsonHelp, "path", wire.DecodePath(p).String())
	}
	const stageHelp = "Routing-tier stage latency by backend: queue is enqueue to drainer pickup (0 when forwarded inline), forward the backend call."
	for _, b := range r.backends {
		b.routed = m.Counter(metricBackendRouted, "Requests admitted with this backend as their home.", "backend", b.name)
		b.served = m.Counter(metricServed, "Requests this backend's slots forwarded, its own and stolen ones.", "backend", b.name)
		b.stolenAway = m.Counter(metricStolenAway, "Requests homed here that another backend stole.", "backend", b.name)
		b.stolenServed = m.Counter(metricSteals, "Requests served by a shard other than their home.", "backend", b.name)
		b.errors = m.Counter(metricErrors, "Forwarding failures (transport errors, not backend HTTP errors).", "backend", b.name)
		b.queueLat = m.Histogram(metricStageLatency, stageHelp, "stage", "queue", "backend", b.name)
		b.forwardLat = m.Histogram(metricStageLatency, stageHelp, "stage", "forward", "backend", b.name)
		m.GaugeFunc(metricQueueLen, "Pending jobs (pinned + stealable).",
			func() float64 { return float64(len(b.pinned) + len(b.local)) }, "backend", b.name)
	}
}

// Metrics returns the router's metrics registry (served on GET /metricsz).
func (r *Router) Metrics() *obs.Registry { return r.metrics }

// finishRequest records the request counter and emits the structured
// request log line, mirroring the scheduler tier: nil Logger disables
// logging, slow requests (≥ SlowThreshold > 0) always log at Warn with the
// stage breakdown, the rest at Info only under LogRequests.
func (r *Router) finishRequest(reqID, endpoint, codec string, status int, res jobResult, dur time.Duration) {
	r.requests.Get(reqKey{endpoint: endpoint, codec: codec, status: status}).Inc()
	if r.cfg.Logger == nil {
		return
	}
	slow := r.cfg.SlowThreshold > 0 && dur >= r.cfg.SlowThreshold
	if !slow && !r.cfg.LogRequests {
		return
	}
	backend := ""
	if res.servedBy >= 0 && res.servedBy < len(r.backends) {
		backend = r.backends[res.servedBy].name
	}
	attrs := []any{
		"request_id", reqID,
		"endpoint", endpoint,
		"codec", codec,
		"status", status,
		"duration_us", dur.Microseconds(),
		"backend", backend,
		"stolen", res.stolen,
		"slow", slow,
	}
	if slow {
		attrs = append(attrs, "inline", res.inline, "queue_ns", res.queueNS, "forward_ns", res.forwardNS)
		r.cfg.Logger.Warn("slow request", attrs...)
		return
	}
	r.cfg.Logger.Info("request", attrs...)
}
