package server

import (
	"strconv"
	"time"

	"malsched/internal/core"
	"malsched/internal/engine"
	"malsched/internal/obs"
	"malsched/internal/solver"
	"malsched/internal/wire"
)

// StatszSchema versions the /statsz payload; bump only with an additive
// change (the drift-guard tests pin the documented counter set).
const StatszSchema = "statsz/v1"

// Metric family names served on GET /metricsz. Stage latencies are labeled
// by stage/solver/codec/shard; the full catalogue is documented in
// docs/OBSERVABILITY.md.
const (
	metricRequests     = "malsched_requests_total"
	metricStageLatency = "malsched_stage_latency_us"
	metricQueueDepth   = "malsched_queue_depth"
	metricInFlight     = "malsched_queue_in_flight"
	metricAdmission    = "malsched_admission_total"
	metricVerifyFail   = "malsched_verify_failures_total"
	metricEngine       = "malsched_engine_events_total"
	metricJSONDecode   = "malsched_json_decode_total"
)

// reqCtx is the per-request observability context threaded from serve
// through solve and encode: the request ID, the codec label, stage timings
// and — when the request asked for it — the solve trace under construction.
type reqCtx struct {
	id       string
	endpoint string // "schedule" or "batch"
	codec    string // "json" or "binary"
	start    time.Time

	// solver and shard label the stage histograms; a batch leaves them
	// unset (each item observes its own stages under a per-item context).
	solver string
	shard  int
	// set is the stage-histogram set resolved during the solve; the encode
	// stage reuses it instead of a second lookup.
	set *stageSet

	st    stageNS
	trace *wire.TraceInfo
}

// stageNS is where one solve's wall-clock went, in nanoseconds.
type stageNS struct {
	queue, compile, solve, verify int64
}

// stageSet caches the five stage histograms of one (solver, codec, shard)
// label combination so the hot path does one map lookup, not five.
type stageSet struct {
	queue, compile, solve, verify, encode *obs.Histogram
}

// stageKey and reqKey index the hot-path instrument caches. Comparable
// struct keys in plain maps keep lookups allocation-free — a string key
// would be rebuilt per request, and boxing into a sync.Map allocates.
type stageKey struct {
	solver, codec string
	shard         int
}

type reqKey struct {
	endpoint, codec string
	status          int
}

// finishRequest records the request counter and emits the structured
// request log line. Logging is off with a nil Config.Logger; with one, slow
// requests (≥ Config.SlowThreshold > 0) always log at Warn — trace summary
// included when one was captured — and the rest log at Info only when
// Config.LogRequests is set.
func (s *Server) finishRequest(rc *reqCtx, status int, dur time.Duration) {
	s.requestCounter(rc.endpoint, rc.codec, status).Inc()
	if s.cfg.Logger == nil {
		return
	}
	slow := s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold
	if !slow && !s.cfg.LogRequests {
		return
	}
	attrs := []any{
		"request_id", rc.id,
		"endpoint", rc.endpoint,
		"codec", rc.codec,
		"status", status,
		"duration_us", dur.Microseconds(),
		"solver", rc.solver,
		"shard", rc.shard,
		"slow", slow,
	}
	if slow {
		attrs = append(attrs,
			"queue_ns", rc.st.queue,
			"compile_ns", rc.st.compile,
			"solve_ns", rc.st.solve,
			"verify_ns", rc.st.verify,
		)
		if rc.trace != nil {
			attrs = append(attrs, "trace_probes", len(rc.trace.Probes), "search_ns", rc.trace.SearchNS)
		}
		s.cfg.Logger.Warn("slow request", attrs...)
		return
	}
	s.cfg.Logger.Info("request", attrs...)
}

// stagesFor resolves the cached stage histograms for one label combination.
func (s *Server) stagesFor(solverName, codec string, shard int) *stageSet {
	k := stageKey{solver: solverName, codec: codec, shard: shard}
	s.obsMu.RLock()
	set := s.stageSets[k]
	s.obsMu.RUnlock()
	if set != nil {
		return set
	}
	const help = "Per-request stage latency by solver, codec and shard."
	sh := strconv.Itoa(shard)
	set = &stageSet{
		queue:   s.metrics.Histogram(metricStageLatency, help, "stage", "queue", "solver", solverName, "codec", codec, "shard", sh),
		compile: s.metrics.Histogram(metricStageLatency, help, "stage", "compile", "solver", solverName, "codec", codec, "shard", sh),
		solve:   s.metrics.Histogram(metricStageLatency, help, "stage", "solve", "solver", solverName, "codec", codec, "shard", sh),
		verify:  s.metrics.Histogram(metricStageLatency, help, "stage", "verify", "solver", solverName, "codec", codec, "shard", sh),
		encode:  s.metrics.Histogram(metricStageLatency, help, "stage", "encode", "solver", solverName, "codec", codec, "shard", sh),
	}
	s.obsMu.Lock()
	if prev := s.stageSets[k]; prev != nil {
		set = prev
	} else {
		s.stageSets[k] = set
	}
	s.obsMu.Unlock()
	return set
}

// requestCounter resolves the cached request counter for one
// (endpoint, codec, status) combination; the registry lookup renders label
// keys, so the hot path goes through this allocation-free cache instead.
func (s *Server) requestCounter(endpoint, codec string, status int) *obs.Counter {
	k := reqKey{endpoint: endpoint, codec: codec, status: status}
	s.obsMu.RLock()
	c := s.reqCounters[k]
	s.obsMu.RUnlock()
	if c != nil {
		return c
	}
	c = s.metrics.Counter(metricRequests, "Scheduling requests by endpoint, codec and HTTP status.",
		"endpoint", endpoint, "codec", codec, "status", strconv.Itoa(status))
	s.obsMu.Lock()
	if prev := s.reqCounters[k]; prev != nil {
		c = prev
	} else {
		s.reqCounters[k] = c
	}
	s.obsMu.Unlock()
	return c
}

// observeStages records one solve's queue/compile/solve/verify timings.
func (set *stageSet) observe(st stageNS) {
	set.queue.Observe(st.queue / 1e3)
	set.compile.Observe(st.compile / 1e3)
	set.solve.Observe(st.solve / 1e3)
	set.verify.Observe(st.verify / 1e3)
}

// solverLabel resolves the metric label of the options' solver selection,
// mirroring the engine's resolution ("portfolio" for portfolio runs).
func solverLabel(o engine.Options) string {
	if len(o.Portfolio) > 0 {
		return "portfolio"
	}
	if o.Solver != "" {
		return o.Solver
	}
	return solver.PaperSolverName
}

// registerMetrics wires the registry's scrape-time views over the server's
// and shards' existing atomic counters, plus the queue gauges.
func (s *Server) registerMetrics() {
	m := s.metrics
	m.GaugeFunc(metricQueueDepth, "Configured admission queue depth.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	m.GaugeFunc(metricInFlight, "Currently admitted requests.",
		func() float64 { return float64(len(s.sem)) })
	m.CounterFunc(metricAdmission, "Admission outcomes.",
		func() float64 { return float64(s.accepted.Load()) }, "outcome", "accepted")
	m.CounterFunc(metricAdmission, "Admission outcomes.",
		func() float64 { return float64(s.rejected.Load()) }, "outcome", "rejected")
	m.CounterFunc(metricVerifyFail, "Responses withheld because verification rejected the plan.",
		func() float64 { return float64(s.verifyFail.Load()) })
	const jsonHelp = "JSON requests and batch items decoded, by path: the request scanner, or encoding/json for a body outside its subset."
	for p := range s.jsonDecode {
		s.jsonDecode[p] = m.Counter(metricJSONDecode, jsonHelp, "path", wire.DecodePath(p).String())
	}
	for i := range s.shards {
		eng := s.shards[i]
		sh := strconv.Itoa(i)
		const help = "Engine shard events (scheduled/errors/timeouts/memo/compile/warm)."
		for _, ev := range []struct {
			name string
			fn   func(engine.Stats) uint64
		}{
			{"scheduled", func(st engine.Stats) uint64 { return st.Scheduled }},
			{"errors", func(st engine.Stats) uint64 { return st.Errors }},
			{"timeouts", func(st engine.Stats) uint64 { return st.Timeouts }},
			{"memo_hits", func(st engine.Stats) uint64 { return st.MemoHits }},
			{"memo_misses", func(st engine.Stats) uint64 { return st.MemoMisses }},
			{"compile_hits", func(st engine.Stats) uint64 { return st.CompileHits }},
			{"compile_misses", func(st engine.Stats) uint64 { return st.CompileMisses }},
			{"warm_solves", func(st engine.Stats) uint64 { return st.WarmSolves }},
			{"synthesized", func(st engine.Stats) uint64 { return st.Synthesized }},
		} {
			fn := ev.fn
			m.CounterFunc(metricEngine, help,
				func() float64 { return float64(fn(eng.Stats())) }, "event", ev.name, "shard", sh)
		}
	}
}

// Metrics returns the server's metrics registry (served on GET /metricsz);
// exposed so embedding processes can add their own families.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// traceInfoOf maps an engine outcome plus the measured stage timings onto
// the wire trace. Memo hits carry phases but no probes (there was no
// search).
func traceInfoOf(out engine.Outcome, st stageNS) *wire.TraceInfo {
	ti := &wire.TraceInfo{
		QueueNS:   st.queue,
		CompileNS: st.compile,
		SolveNS:   st.solve,
		VerifyNS:  st.verify,
	}
	if out.Trace == nil {
		return ti
	}
	ti.SearchNS = out.Trace.SearchNS
	if n := len(out.Trace.Probes); n > 0 {
		ti.Probes = make([]wire.TraceProbe, n)
		for i, p := range out.Trace.Probes {
			ti.Probes[i] = wire.TraceProbe{
				Lambda:      p.Lambda,
				Segment:     p.Segment,
				Accepted:    p.Accepted,
				Reason:      rejectSlug(p),
				Certified:   p.Certified,
				Synthesized: p.Synthesized,
			}
		}
	}
	return ti
}

// rejectSlug is the wire encoding of a probe's reject reason; empty for
// accepted probes.
func rejectSlug(p core.ProbeTrace) string {
	if p.Accepted {
		return ""
	}
	switch p.Reject {
	case core.RejectTooSlow:
		return "too-slow"
	case core.RejectArea:
		return "area"
	case core.RejectKnapsack:
		return "knapsack"
	case core.RejectUnproven:
		return "unproven"
	default:
		return "unknown"
	}
}
