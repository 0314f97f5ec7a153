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
// by stage/solver/codec; the full catalogue is documented in
// docs/OBSERVABILITY.md.
const (
	metricRequests     = "malsched_requests_total"
	metricStageLatency = "malsched_stage_latency_us"
	metricQueueDepth   = "malsched_queue_depth"
	metricInFlight     = "malsched_queue_in_flight"
	metricDraining     = "malsched_draining"
	metricAdmission    = "malsched_admission_total"
	metricVerifyFail   = "malsched_verify_failures_total"
	metricBinary       = "malsched_binary_requests_total"
	metricGraph        = "malsched_graph_requests_total"
	metricEngine       = "malsched_engine_events_total"
	metricEntries      = "malsched_engine_entries"
	metricJSONDecode   = "malsched_json_decode_total"
	metricCollisions   = "malsched_memo_collisions_total"
	metricByteHits     = "malsched_memo_byte_hits_total"
)

// reqCtx is the per-request observability context threaded from serve
// through solve and encode: the request ID, the codec label, stage timings
// and — when the request asked for it — the solve trace under construction.
type reqCtx struct {
	id       string
	endpoint string // "schedule" or "batch"
	codec    string // "json" or "binary"
	// start is the request's one wall-clock read; last is the elapsed time
	// at the latest stage boundary (see lap).
	start time.Time
	last  int64

	// solver labels the stage histograms; a batch leaves it unset (each
	// item observes its own stages under a per-item context).
	solver string
	// set is the stage-histogram set resolved during the solve; the encode
	// stage reuses it instead of a second lookup.
	set *stageSet

	st    stageNS
	trace *wire.TraceInfo
	// memo is the entry a verified memo hit was answered from: the binary
	// encoder attaches the answer's bytes to it.
	memo *engine.MemoEntry
}

// lap marks a stage boundary: it returns the nanoseconds since the previous
// one (since start, at the first) and makes now the previous one. Each
// boundary costs one monotonic clock read.
func (rc *reqCtx) lap() int64 {
	now := int64(time.Since(rc.start))
	d := now - rc.last
	rc.last = now
	return d
}

// stageNS is where one solve's wall-clock went, in nanoseconds.
type stageNS struct {
	queue, compile, solve, verify int64
}

// stageSet holds the five stage histograms of one (solver, codec) label
// combination so the hot path does one lookup, not five.
type stageSet struct {
	queue, compile, solve, verify, encode *obs.Histogram
}

// stageKey and reqKey key the hot-path instrument Vecs.
type stageKey struct {
	solver, codec string
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
	s.requests.Get(reqKey{endpoint: rc.endpoint, codec: rc.codec, status: status}).Inc()
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

// engineView reads one of the engine's own counters. They stay in the
// engine, because engine.Stats is the facade's EngineStats, and /metricsz
// bridges them at scrape time.
type engineView struct {
	label string
	of    func(engine.Stats) float64
}

var (
	engineEvents = []engineView{
		{"scheduled", func(st engine.Stats) float64 { return float64(st.Scheduled) }},
		{"errors", func(st engine.Stats) float64 { return float64(st.Errors) }},
		{"panics", func(st engine.Stats) float64 { return float64(st.Panics) }},
		{"timeouts", func(st engine.Stats) float64 { return float64(st.Timeouts) }},
		{"memo_hits", func(st engine.Stats) float64 { return float64(st.MemoHits) }},
		{"memo_misses", func(st engine.Stats) float64 { return float64(st.MemoMisses) }},
		{"compile_hits", func(st engine.Stats) float64 { return float64(st.CompileHits) }},
		{"compile_misses", func(st engine.Stats) float64 { return float64(st.CompileMisses) }},
		{"warm_solves", func(st engine.Stats) float64 { return float64(st.WarmSolves) }},
		{"synthesized", func(st engine.Stats) float64 { return float64(st.Synthesized) }},
	}
	engineEntries = []engineView{
		{"memo", func(st engine.Stats) float64 { return float64(st.MemoEntries) }},
		{"compiled", func(st engine.Stats) float64 { return float64(st.CompiledEntries) }},
		{"warm", func(st engine.Stats) float64 { return float64(st.WarmEntries) }},
	}
)

// registerMetrics creates the server's instruments in its registry — the
// one set of books /statsz and /metricsz both read — plus the scrape-time
// views over the queue and the engine.
func (s *Server) registerMetrics() {
	m := s.metrics
	const stageHelp = "Per-request stage latency by solver and codec."
	s.stages = obs.NewVec(func(k stageKey) *stageSet {
		h := func(stage string) *obs.Histogram {
			return m.Histogram(metricStageLatency, stageHelp, "stage", stage, "solver", k.solver, "codec", k.codec)
		}
		return &stageSet{queue: h("queue"), compile: h("compile"), solve: h("solve"), verify: h("verify"), encode: h("encode")}
	})
	s.requests = obs.NewVec(func(k reqKey) *obs.Counter {
		return m.Counter(metricRequests, "Scheduling requests by endpoint, codec and HTTP status.",
			"endpoint", k.endpoint, "codec", k.codec, "status", strconv.Itoa(k.status))
	})
	s.accepted = m.Counter(metricAdmission, "Admission outcomes.", "outcome", "accepted")
	s.rejected = m.Counter(metricAdmission, "Admission outcomes.", "outcome", "rejected")
	s.verifyFail = m.Counter(metricVerifyFail, "Responses withheld because verification rejected the plan.")
	s.binaryReqs = m.Counter(metricBinary, "/v1/schedule requests over the binary codec.")
	s.graphReqs = m.Counter(metricGraph, "/v1/schedule requests that carried a precedence graph, valid or not.")
	s.byteHits = m.Counter(metricByteHits, "Memo hits, binary or JSON, answered from the entry's verified bytes, without a decode.")
	m.CounterFunc(metricCollisions, "Memo and compiled-cache probes that found an entry of other words under their key, answered as misses.",
		func() float64 { return float64(s.eng.Stats().Collisions) })
	const jsonHelp = "JSON requests and batch items decoded, by path: the request scanner, or encoding/json for a body outside its subset."
	for p := range s.jsonDecode {
		s.jsonDecode[p] = m.Counter(metricJSONDecode, jsonHelp, "path", wire.DecodePath(p).String())
	}
	m.GaugeFunc(metricQueueDepth, "Configured admission queue depth.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	m.GaugeFunc(metricInFlight, "Currently admitted requests.",
		func() float64 { return float64(len(s.sem)) })
	m.GaugeFunc(metricDraining, "1 once the server is draining, 0 before.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	for _, v := range engineEvents {
		m.CounterFunc(metricEngine, "Engine events.", v.at(s.eng), "event", v.label)
	}
	for _, v := range engineEntries {
		m.GaugeFunc(metricEntries, "Resident engine cache entries by cache.", v.at(s.eng), "cache", v.label)
	}
}

func (v engineView) at(eng *engine.Engine) func() float64 {
	return func() float64 { return v.of(eng.Stats()) }
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
