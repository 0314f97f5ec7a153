package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"malsched/internal/core"
	"malsched/internal/obs"
	"malsched/internal/router"
	"malsched/internal/schedule"
	"malsched/internal/server"
	"malsched/internal/verify"
	"malsched/internal/wire"
)

// shards is the number of msserve shards behind the router.
const shards = 2

// stack is the system under test, in process: a router over two scheduler
// shards, every setting at its default (memoCap 0) so the numbers describe
// what `msroute` over two `msserve` processes runs, minus the network.
type stack struct {
	rt  *router.Router
	srv [shards]*server.Server
}

func newStack(memoCap int) (*stack, error) {
	s := &stack{}
	backends := make([]router.Backend, shards)
	for i := range s.srv {
		s.srv[i] = server.New(server.Config{MemoCapacity: memoCap})
		backends[i] = router.Backend{Name: fmt.Sprintf("shard-%d", i), Handler: s.srv[i].Handler()}
	}
	rt, err := router.New(router.Config{Backends: backends})
	if err != nil {
		return nil, err
	}
	s.rt = rt
	return s, nil
}

func (s *stack) close() { s.rt.Close() }

// counters is a snapshot of the stack's own books: the router's and the
// shards' /statsz counters plus the stage histograms of both /metricsz
// pages. The difference of two snapshots (sub) describes one window.
type counters struct {
	routed, shed, pinned, local, steals, binary uint64
	accepted, rejected, graphReqs, verifyFail   uint64
	memoHits, memoMisses                        uint64
	compileHits, compileMisses                  uint64
	synthesized                                 uint64
	// stageSum and stageCount are the _sum (µs) and _count of each stage
	// histogram, keyed "router.queue", "server.solve", ….
	stageSum, stageCount map[string]float64
}

// sub returns the counters accumulated since an earlier snapshot.
func (c counters) sub(b counters) counters {
	d := counters{
		routed: c.routed - b.routed, shed: c.shed - b.shed, pinned: c.pinned - b.pinned,
		local: c.local - b.local, steals: c.steals - b.steals, binary: c.binary - b.binary,
		accepted: c.accepted - b.accepted, rejected: c.rejected - b.rejected,
		graphReqs: c.graphReqs - b.graphReqs, verifyFail: c.verifyFail - b.verifyFail,
		memoHits: c.memoHits - b.memoHits, memoMisses: c.memoMisses - b.memoMisses,
		compileHits: c.compileHits - b.compileHits, compileMisses: c.compileMisses - b.compileMisses,
		synthesized: c.synthesized - b.synthesized,
		stageSum:    map[string]float64{}, stageCount: map[string]float64{},
	}
	for k, v := range c.stageSum {
		d.stageSum[k] = v - b.stageSum[k]
		d.stageCount[k] = c.stageCount[k] - b.stageCount[k]
	}
	return d
}

// stageMean is the mean of a stage histogram over the snapshot, in µs.
func (c counters) stageMean(key string) float64 {
	if c.stageCount[key] == 0 {
		return 0
	}
	return c.stageSum[key] / c.stageCount[key]
}

func (s *stack) counters() (counters, error) {
	var c counters
	rs := s.rt.Stats()
	c.routed, c.shed, c.pinned = rs.Routed, rs.Rejected, rs.LineagePinned
	c.local, c.steals, c.binary = rs.LocalServed, rs.Steals, rs.BinaryRequests
	for _, srv := range s.srv {
		st := srv.Stats()
		c.accepted += st.Queue.Accepted
		c.rejected += st.Queue.Rejected
		c.graphReqs += st.GraphRequests
		c.verifyFail += st.VerifyFailures
		for _, sh := range st.Shards {
			c.memoHits += sh.MemoHits
			c.memoMisses += sh.MemoMisses
			c.compileHits += sh.CompileHits
			c.compileMisses += sh.CompileMisses
			c.synthesized += sh.Synthesized
		}
	}
	c.stageSum, c.stageCount = map[string]float64{}, map[string]float64{}
	if err := scrapeStages(s.rt.Handler(), "msroute_stage_latency_us", "router.", c.stageSum, c.stageCount); err != nil {
		return c, err
	}
	for _, srv := range s.srv {
		if err := scrapeStages(srv.Handler(), "malsched_stage_latency_us", "server.", c.stageSum, c.stageCount); err != nil {
			return c, err
		}
	}
	return c, nil
}

// scrape renders one /metricsz page through the handler.
func scrape(h http.Handler) (string, error) {
	req, err := http.NewRequest(http.MethodGet, "/metricsz", nil)
	if err != nil {
		return "", err
	}
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		return "", fmt.Errorf("bench: GET /metricsz: status %d", rec.status)
	}
	return string(rec.body), nil
}

// scrapeStages adds the _sum and _count series of one stage-latency family
// into sum and count, keyed prefix+stage and summed over every other
// label.
func scrapeStages(h http.Handler, family, prefix string, sum, count map[string]float64) error {
	text, err := scrape(h)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		var into map[string]float64
		switch {
		case strings.HasPrefix(rest, "_sum{"):
			into = sum
		case strings.HasPrefix(rest, "_count{"):
			into = count
		default:
			continue
		}
		const key = `stage="`
		i := strings.Index(rest, key)
		sp := strings.LastIndexByte(rest, ' ')
		if i < 0 || sp < 0 {
			return fmt.Errorf("bench: unparsable /metricsz line %q", line)
		}
		stage := rest[i+len(key):]
		stage = stage[:strings.IndexByte(stage, '"')]
		var v float64
		if _, err := fmt.Sscanf(rest[sp+1:], "%g", &v); err != nil {
			return fmt.Errorf("bench: unparsable /metricsz value in %q: %w", line, err)
		}
		into[prefix+stage] += v
	}
	return nil
}

// recorder is the client's http.ResponseWriter: it keeps the status and
// the body, and is reused from request to request.
type recorder struct {
	header http.Header
	status int
	body   []byte
}

func newRecorder() *recorder { return &recorder{header: make(http.Header), status: http.StatusOK} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *recorder) reset() {
	clear(r.header)
	r.status = http.StatusOK
	r.body = r.body[:0]
}

// client is one closed-loop caller: it builds a request from an item's
// bytes, drives a handler and keeps the response for checking.
type client struct {
	rec *recorder
}

func newClient() *client { return &client{rec: newRecorder()} }

// do sends one item to the handler. A non-empty reqID travels as
// X-Malsched-Request. The response is in c.rec until the next call.
func (c *client) do(h http.Handler, it *item, reqID string) error {
	req, err := http.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(it.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", it.contentType())
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	c.rec.reset()
	h.ServeHTTP(c.rec, req)
	return nil
}

// response decodes the recorded body in the item's codec.
func (c *client) response(it *item) (*wire.ScheduleResponse, error) {
	if c.rec.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", c.rec.status, errorText(it, c.rec.body))
	}
	if it.class == clsHotJSON {
		resp := &wire.ScheduleResponse{}
		if err := json.Unmarshal(c.rec.body, resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
	return wire.DecodeScheduleResponse(c.rec.body)
}

func errorText(it *item, body []byte) string {
	if it.class == clsHotJSON {
		return string(body)
	}
	if e, err := wire.DecodeError(body); err == nil {
		return e.Error.Code + ": " + e.Error.Message
	}
	return fmt.Sprintf("%d undecodable bytes", len(body))
}

// planHash is an FNV-1a digest of every placement field, so two plans hash
// alike only if they are the same plan.
func planHash(p *wire.PlanJSON) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	mix(uint64(len(p.Placements)))
	for i := range p.Placements {
		pl := &p.Placements[i]
		mix(uint64(pl.Task))
		mix(math.Float64bits(pl.Start))
		mix(uint64(pl.Width))
		mix(uint64(int64(pl.First)))
		mix(uint64(len(pl.ProcSet)))
		for _, q := range pl.ProcSet {
			mix(uint64(q))
		}
	}
	return h
}

// ratioCap is the paper's guarantee at the default search tolerance
// ε = 1e-3: an mrt response whose certified makespan exceeds
// √3(1+ε) × its certified lower bound breaks the certificate, and the run
// aborts on it.
var ratioCap = core.Rho * (1 + 1e-3) * (1 + 1e-12)

// verifyAndRecord is the warm-up's client-side check of one response: the
// plan is rebuilt from the wire and re-verified against the generated
// instance (verify.Plan, plus verify.Precedence for graphs) — independently
// of the server's own verification — and its certificate becomes the
// item's record.
func verifyAndRecord(it *item, src source, resp *wire.ScheduleResponse) error {
	plan := &schedule.Schedule{Algorithm: resp.Plan.Algorithm, Placements: make([]schedule.Placement, len(resp.Plan.Placements))}
	for i, p := range resp.Plan.Placements {
		plan.Placements[i] = schedule.Placement{Task: p.Task, Start: p.Start, Width: p.Width, First: p.First, ProcSet: p.ProcSet}
	}
	cert := verify.Certified{Plan: plan, Makespan: resp.Makespan, LowerBound: resp.LowerBound}
	if err := verify.Plan(src.in, cert, false); err != nil {
		return fmt.Errorf("client-side verify.Plan: %w", err)
	}
	if src.graph != nil {
		if err := verify.Precedence(src.in, src.graph, plan); err != nil {
			return fmt.Errorf("client-side verify.Precedence: %w", err)
		}
	}
	if it.mrt && resp.Makespan/resp.LowerBound > ratioCap {
		return fmt.Errorf("mrt ratio %v exceeds the √3(1+ε) certificate", resp.Makespan/resp.LowerBound)
	}
	it.mk, it.lb = math.Float64bits(resp.Makespan), math.Float64bits(resp.LowerBound)
	it.plan = planHash(&resp.Plan)
	it.verified = true
	return nil
}

// matches compares a response against the item's verified record, bit for
// bit.
func (it *item) matches(resp *wire.ScheduleResponse) bool {
	return it.verified &&
		math.Float64bits(resp.Makespan) == it.mk &&
		math.Float64bits(resp.LowerBound) == it.lb &&
		planHash(&resp.Plan) == it.plan
}
