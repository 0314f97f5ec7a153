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
	metricRequests     = "msroute_requests_total"
	metricStageLatency = "msroute_stage_latency_us"
	metricRouted       = "msroute_routed_total"
	metricRejected     = "msroute_rejected_total"
	metricDispatch     = "msroute_dispatch_total"
	metricSteals       = "msroute_steals_total"
	metricPinned       = "msroute_lineage_pinned_total"
	metricQueueLen     = "msroute_queue_len"
	metricErrors       = "msroute_backend_errors_total"
	metricJSONDecode   = "msroute_json_decode_total"
)

// stageSet caches the two stage histograms of one backend label so the
// forwarding hot path does one map lookup per job.
type stageSet struct {
	queue, forward *obs.Histogram
}

// reqKey indexes the request-counter cache; a comparable struct key in a
// plain map keeps the per-request lookup allocation-free.
type reqKey struct {
	endpoint, codec string
	status          int
}

// stagesFor resolves the cached stage histograms for one backend.
func (r *Router) stagesFor(backend string) *stageSet {
	r.obsMu.RLock()
	set := r.stageSets[backend]
	r.obsMu.RUnlock()
	if set != nil {
		return set
	}
	const help = "Routing-tier stage latency by backend: queue is enqueue to drainer pickup (0 when forwarded inline), forward the backend call."
	set = &stageSet{
		queue:   r.metrics.Histogram(metricStageLatency, help, "stage", "queue", "backend", backend),
		forward: r.metrics.Histogram(metricStageLatency, help, "stage", "forward", "backend", backend),
	}
	r.obsMu.Lock()
	if prev := r.stageSets[backend]; prev != nil {
		set = prev
	} else {
		r.stageSets[backend] = set
	}
	r.obsMu.Unlock()
	return set
}

// requestCounter resolves the cached request counter for one
// (endpoint, codec, status) combination; the registry lookup renders label
// keys, so the dispatch path goes through this allocation-free cache.
func (r *Router) requestCounter(endpoint, codec string, status int) *obs.Counter {
	k := reqKey{endpoint: endpoint, codec: codec, status: status}
	r.obsMu.RLock()
	c := r.reqCounters[k]
	r.obsMu.RUnlock()
	if c != nil {
		return c
	}
	c = r.metrics.Counter(metricRequests, "Routed requests by endpoint, codec and HTTP status.",
		"endpoint", endpoint, "codec", codec, "status", strconv.Itoa(status))
	r.obsMu.Lock()
	if prev := r.reqCounters[k]; prev != nil {
		c = prev
	} else {
		r.reqCounters[k] = c
	}
	r.obsMu.Unlock()
	return c
}

// registerMetrics wires scrape-time views over the router's existing
// atomic counters and per-backend queue gauges.
func (r *Router) registerMetrics() {
	m := r.metrics
	const dispatchHelp = "Routed requests by dispatch mode: inline on the caller's goroutine, or queued for a drainer."
	r.inlineCnt = m.Counter(metricDispatch, dispatchHelp, "mode", "inline")
	r.queuedCnt = m.Counter(metricDispatch, dispatchHelp, "mode", "queued")
	const jsonHelp = "JSON requests keyed, by decode path: the request scanner, or encoding/json for a body outside its subset."
	for p := range r.jsonDecode {
		r.jsonDecode[p] = m.Counter(metricJSONDecode, jsonHelp, "path", wire.DecodePath(p).String())
	}
	m.CounterFunc(metricRouted, "Requests admitted to a shard, inline or queued.",
		func() float64 { return float64(r.routed.Load()) })
	m.CounterFunc(metricRejected, "Requests shed because their home queue was full.",
		func() float64 { return float64(r.rejected.Load()) })
	m.CounterFunc(metricPinned, "Requests routed by lineage key (never stolen).",
		func() float64 { return float64(r.pinnedCnt.Load()) })
	for i := range r.backends {
		b := r.backends[i]
		m.CounterFunc(metricSteals, "Requests served by a shard other than their home.",
			func() float64 { return float64(b.stolenServed.Load()) }, "backend", b.name)
		m.CounterFunc(metricErrors, "Forwarding failures (transport errors, not backend HTTP errors).",
			func() float64 { return float64(b.errors.Load()) }, "backend", b.name)
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
	r.requestCounter(endpoint, codec, status).Inc()
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
