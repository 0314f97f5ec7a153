// Package sim is a deterministic discrete-event simulator for online
// malleable scheduling: jobs arrive over time on an m-processor cluster,
// a pluggable policy decides allotments and placements (typically by
// running the paper's √3-approximation on the residual workload), and the
// executor plays the decisions out against perturbed runtimes, producing
// an executed timeline plus flow-time/utilization/queue metrics.
//
// The static pipeline certifies plans before they leave the module
// (verify.Plan); the simulator's executed timelines are certified the same
// way by verify.Timeline — no oversubscription, arrival-respecting starts,
// per-job work conservation across preemptions — which cmd/mssim
// self-applies to every run.
//
// Determinism: the event queue is ordered by (time, insertion sequence),
// policies see state through deterministic slice-ordered views, runtime
// noise is a pure function of (seed, job index), and the planning engine is
// deterministic — so a simulation is a pure function of (trace, Config).
// One caveat scopes that claim: with a shared Engine a memo hit reports
// the Metrics.Probes and Metrics.Synthesized of whichever solve populated
// the memo, warm or cold. Every other field, the timeline included, is
// cache-independent.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/verify"
	"malsched/internal/workload"
)

// doneTol is the remaining-work fraction below which a job counts as
// finished; it absorbs the rounding of repeated preemption accounting and
// stays well inside verify.Timeline's work-conservation tolerance.
const doneTol = 1e-9

// Config selects and tunes one simulation run. The zero value of every
// field is usable: epoch-batch policy semantics require Policy to be set,
// but Epoch, Preempt, Noise, Seed, Eps and Solver all default
// sensibly and Engine defaults to a private planning engine.
type Config struct {
	// Policy names the online policy: "epoch-batch", "greedy-rigid" or
	// "replan-on-arrival" (Policies lists them).
	Policy string
	// Epoch is the epoch-batch planning period; 0 means 1.
	Epoch float64
	// Preempt selects the replan-on-arrival preemption model: "none"
	// (default — running jobs are never touched, only uncommitted work is
	// replanned) or "repartition" (running jobs are preempted at replan
	// boundaries and their remaining work is re-allotted malleably).
	Preempt string
	// Noise is the multiplicative runtime-perturbation amplitude a ∈ [0, 1):
	// each job's executed times are its nominal times × a factor drawn
	// uniformly from [1−a, 1+a]. 0 disables perturbation.
	Noise float64
	// Seed seeds the noise stream (and nothing else — workload randomness
	// lives in the trace).
	Seed int64
	// Eps and Solver configure the planning kernel exactly like the
	// facade options of the same names.
	Eps    float64
	Solver string
	// ColdReplan disables warm-start replanning: the replan-on-arrival
	// policy re-solves every residual from scratch instead of threading a
	// warm lineage (engine.ScheduleWarm) through the run's successive
	// replans. Schedules are bit-identical either way — warm mode changes
	// only Metrics.Probes and Metrics.Synthesized — so the flag exists as
	// the benchmark reference for the warm path.
	ColdReplan bool
	// Engine, when non-nil, is the shared planning engine (memo and
	// compiled caches persist across runs — repeated epochs of a recurring
	// workload re-solve from cache). nil builds a private engine.
	Engine *engine.Engine
	// SolveObserver, when non-nil, receives the wall-clock nanoseconds of
	// every planning solve. Pure observation — simulated time, schedules
	// and metrics are unchanged — cmd/mssim wires it to per-policy
	// solve-latency histograms (-metrics-out) while BENCH_sim.json stays
	// bit-identical across runs.
	SolveObserver func(ns int64)
}

// Policies returns the registered policy names, in reporting order.
// "dag-release" is the only one that honours trace/v2 precedence edges;
// Run rejects an edge-carrying trace under any other policy.
func Policies() []string {
	return []string{"epoch-batch", "greedy-rigid", "replan-on-arrival", "dag-release"}
}

// DAGAware reports whether the named policy honours trace precedence
// edges — i.e. whether Run accepts an edge-carrying trace under it. False
// for unknown names.
func DAGAware(policy string) bool {
	p, err := newPolicy(Config{Policy: policy})
	return err == nil && p.dagAware()
}

// Metrics summarises one executed run. All fields are deterministic
// functions of (trace, Config).
type Metrics struct {
	// Makespan is the completion time of the last job.
	Makespan float64 `json:"makespan"`
	// MeanFlow and MaxFlow aggregate per-job flow times (completion −
	// arrival), the primary online quality metric.
	MeanFlow float64 `json:"mean_flow"`
	MaxFlow  float64 `json:"max_flow"`
	// Utilization is executed processor-time over m·Makespan.
	Utilization float64 `json:"utilization"`
	// QueueMean is the time-averaged number of waiting jobs (arrived, not
	// running, not done) over [0, Makespan]; QueueMax the peak.
	QueueMean float64 `json:"queue_mean"`
	QueueMax  int     `json:"queue_max"`
	// LowerBound is a certified lower bound on the makespan of ANY
	// execution of the trace with nominal runtimes: the squashed-area bound
	// of the offline relaxation, strengthened with max over jobs of
	// arrival + fastest nominal time (no job can finish earlier).
	// Makespan/LowerBound bounds the combined online + noise degradation.
	LowerBound float64 `json:"lower_bound"`
	// Rescheduling cost: Plans counts planning-kernel invocations, Probes
	// their dual-approximation steps, Synthesized the probe outcomes
	// warm-start replans resolved from cached segment tables without a
	// dual step (0 under ColdReplan and for policies without a warm
	// lineage), Preemptions the running spans cut at replan boundaries,
	// Revoked the committed-but-unstarted placements withdrawn by replans,
	// Spans the executed spans of the timeline.
	Plans       int `json:"plans"`
	Probes      int `json:"probes"`
	Synthesized int `json:"synthesized"`
	Preemptions int `json:"preemptions"`
	Revoked     int `json:"revoked"`
	Spans       int `json:"spans"`
}

// Result is one executed simulation: the timeline (verify.Timeline-ready),
// the per-job noise factors and completion times, and the metrics.
type Result struct {
	// Policy echoes the policy that ran.
	Policy string
	// Timeline holds every executed span in completion order.
	Timeline []verify.Span
	// Noise holds the per-job multiplicative runtime factor.
	Noise []float64
	// Completions holds per-job completion times (Jobs order of the trace).
	Completions []float64
	// Metrics summarises the run.
	Metrics Metrics
}

// TimelineJobs converts a trace into verify.Timeline's job view.
func TimelineJobs(tr *workload.Trace) []verify.TimelineJob {
	jobs := make([]verify.TimelineJob, len(tr.Jobs))
	for i, j := range tr.Jobs {
		jobs[i] = verify.TimelineJob{Task: j.Task, Arrival: j.Arrival}
	}
	return jobs
}

// Run errors.
var (
	ErrNilTrace      = errors.New("sim: nil trace")
	ErrUnknownPolicy = errors.New("sim: unknown policy")
	ErrBadNoise      = errors.New("sim: noise amplitude must be in [0, 1)")
	ErrStalled       = errors.New("sim: simulation stalled with unfinished jobs")
	// ErrEdgesNeedDAGPolicy rejects an edge-carrying trace under a policy
	// that would silently execute it as independent jobs — dropping
	// precedence constraints is never a valid simulation of a DAG trace.
	ErrEdgesNeedDAGPolicy = errors.New("sim: trace carries precedence edges; use a dag-aware policy")
)

// Event kinds, in no particular priority — ties resolve by insertion
// sequence, which the setup orders deliberately (arrivals before the first
// tick, ticks before completions pushed later at the same instant).
const (
	evArrival = iota
	evCompletion
	evTick
	evWake
)

// event is one entry of the simulation clock's priority queue.
type event struct {
	t    float64
	seq  int64
	kind int
	// job for arrivals, span id for completions; unused otherwise.
	arg int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// assignment is one committed (but possibly not yet started) placement
// decision of a policy.
type assignment struct {
	job     int
	width   int
	procs   []int
	planned float64
	started bool
	revoked bool
}

// span is one started run of a job; completion turns it into a timeline
// entry, preemption cuts it short (cancelled) and records the elapsed part.
type span struct {
	job       int
	width     int
	procs     []int
	start     float64
	duration  float64
	cancelled bool
}

// state is the simulator core: cluster occupancy, the event clock, the
// commitment queues of the executor, and metric accumulators. Policies see
// it through the helper methods below; they never touch the executor's
// bookkeeping directly.
type state struct {
	tr   *workload.Trace
	cfg  Config
	eng  *engine.Engine
	opts engine.Options

	// full is the offline relaxation of the trace (all jobs, arrivals
	// dropped) and compiled its λ-breakpoint view, built once per run
	// (from the engine's compiled cache, so shared engines reuse the
	// tables across runs); policies carve residual instances out of it
	// and the metrics derive the certified bound from it.
	full     *instance.Instance
	compiled *instance.Compiled

	// ws is the run's warm replanning lineage (nil when the policy does
	// not replan or Config.ColdReplan is set): private to the run, so a
	// simulation stays a pure function of (trace, Config) — the lineage
	// seed never leaks across runs.
	ws *engine.WarmState

	now    float64
	events eventHeap
	seq    int64

	noise     []float64
	arrived   []bool
	done      []bool
	remaining []float64 // work fraction left per job
	runningOn []int     // span id currently executing job j, -1 if none
	pending   []int     // unrevoked unstarted assignments per job
	completed []float64 // completion time per job
	doneCount int

	assignments []*assignment
	unstarted   []int // assignment ids in commit order, compacted lazily
	queues      [][]int
	running     []int // span id per processor, -1 when idle
	spans       []span
	timeline    []verify.Span

	lastT     float64
	queueArea float64
	queueMax  int

	plans, probes, synth, preemptions, revoked int
}

func newState(tr *workload.Trace, cfg Config, eng *engine.Engine, planner bool) (*state, error) {
	n := tr.N()
	s := &state{
		tr:  tr,
		cfg: cfg,
		eng: eng,
		opts: engine.Options{
			Eps:    cfg.Eps,
			Solver: cfg.Solver,
		},
		noise:     make([]float64, n),
		arrived:   make([]bool, n),
		done:      make([]bool, n),
		remaining: make([]float64, n),
		runningOn: make([]int, n),
		pending:   make([]int, n),
		completed: make([]float64, n),
		queues:    make([][]int, tr.M),
		running:   make([]int, tr.M),
	}
	for j := 0; j < n; j++ {
		s.noise[j] = 1
		s.remaining[j] = 1
		s.runningOn[j] = -1
	}
	if cfg.Noise > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		for j := range s.noise {
			s.noise[j] = 1 - cfg.Noise + 2*cfg.Noise*rng.Float64()
		}
	}
	for p := range s.running {
		s.running[p] = -1
	}
	full, err := tr.Instance()
	if err != nil {
		return nil, err
	}
	s.full = full
	if planner {
		s.compiled = eng.CompiledFor(full)
	}
	for j, job := range tr.Jobs {
		s.push(job.Arrival, evArrival, j)
	}
	return s, nil
}

func (s *state) push(t float64, kind, arg int) {
	heap.Push(&s.events, event{t: t, seq: s.seq, kind: kind, arg: arg})
	s.seq++
}

func (s *state) allDone() bool { return s.doneCount == s.tr.N() }

// moreArrivalsNow reports whether another arrival at the current instant
// is still queued. Same-time arrivals carry the smallest insertion
// sequences of their instant (they are pushed at setup), so the heap top
// is one of them exactly while the burst is still draining — policies use
// this to coalesce a burst into a single planning round with full
// information instead of replanning per co-arrival.
func (s *state) moreArrivalsNow() bool {
	if s.events.Len() == 0 {
		return false
	}
	return s.events[0].kind == evArrival && s.events[0].t == s.now
}

// waiting reports whether job j is arrived, unfinished and not currently
// executing — the queue-depth notion of the metrics.
func (s *state) waiting(j int) bool {
	return s.arrived[j] && !s.done[j] && s.runningOn[j] == -1
}

// queued returns the jobs a policy still has to place: waiting jobs with
// no pending commitment, in job order.
func (s *state) queued() []int {
	var out []int
	for j := range s.arrived {
		if s.waiting(j) && s.pending[j] == 0 {
			out = append(out, j)
		}
	}
	return out
}

// freeProcs returns the processors with no running span and no pending
// commitment, ascending.
func (s *state) freeProcs() []int {
	var out []int
	for p := range s.running {
		if s.running[p] == -1 && s.head(p) == -1 {
			out = append(out, p)
		}
	}
	return out
}

// head returns the first live (unstarted, unrevoked) assignment id on
// processor p's queue, compacting consumed entries, or -1.
func (s *state) head(p int) int {
	q := s.queues[p]
	for len(q) > 0 {
		a := s.assignments[q[0]]
		if a.started || a.revoked {
			q = q[1:]
			continue
		}
		s.queues[p] = q
		return q[0]
	}
	s.queues[p] = q
	return -1
}

// commit registers a placement decision: job j to run at the given width
// on exactly those processors, not before planned. The executor starts it
// once all its processors are free and every earlier commitment on them
// has run — so planned starts shift right under runtime noise but never
// violate capacity.
func (s *state) commit(j, width int, procs []int, planned float64) {
	id := len(s.assignments)
	a := &assignment{job: j, width: width, procs: procs, planned: planned}
	s.assignments = append(s.assignments, a)
	s.unstarted = append(s.unstarted, id)
	for _, p := range procs {
		s.queues[p] = append(s.queues[p], id)
	}
	s.pending[j]++
	if planned > s.now {
		s.push(planned, evWake, 0)
	}
}

// tryStarts starts every startable assignment, to fixpoint. Commit order
// is the per-processor priority, so two assignments never deadlock across
// queues (the earlier one heads every shared queue).
func (s *state) tryStarts() {
	for progress := true; progress; {
		progress = false
		live := s.unstarted[:0]
		for _, id := range s.unstarted {
			a := s.assignments[id]
			if a.started || a.revoked {
				continue
			}
			if s.startable(a, id) {
				s.start(a)
				progress = true
				continue
			}
			live = append(live, id)
		}
		s.unstarted = live
	}
}

func (s *state) startable(a *assignment, id int) bool {
	if s.now < a.planned {
		return false
	}
	for _, p := range a.procs {
		if s.running[p] != -1 || s.head(p) != id {
			return false
		}
	}
	return true
}

// start executes an assignment: the span's wall-clock duration is the
// job's noise factor × the nominal time of its remaining work at the
// chosen width.
func (s *state) start(a *assignment) {
	j := a.job
	dur := s.noise[j] * s.remaining[j] * s.tr.Jobs[j].Task.Time(a.width)
	id := len(s.spans)
	s.spans = append(s.spans, span{job: j, width: a.width, procs: a.procs, start: s.now, duration: dur})
	for _, p := range a.procs {
		s.running[p] = id
		q := s.queues[p]
		s.queues[p] = q[1:] // head(p) == this assignment, checked by startable
	}
	a.started = true
	s.pending[j]--
	s.runningOn[j] = id
	s.push(s.now+dur, evCompletion, id)
}

// finish retires span id at the current time, recording its timeline entry.
func (s *state) finish(id int) {
	sp := &s.spans[id]
	j := sp.job
	s.timeline = append(s.timeline, verify.Span{
		Job: j, Width: sp.width, Procs: sp.procs,
		Start: sp.start, Duration: sp.duration, Noise: s.noise[j],
	})
	for _, p := range sp.procs {
		s.running[p] = -1
	}
	s.runningOn[j] = -1
	s.remaining[j] = 0
	s.markDone(j)
}

func (s *state) markDone(j int) {
	s.done[j] = true
	s.completed[j] = s.now
	s.doneCount++
}

// revokeUnstarted withdraws every committed-but-unstarted placement; the
// affected jobs return to the planning queue.
func (s *state) revokeUnstarted() {
	for _, id := range s.unstarted {
		a := s.assignments[id]
		if a.started || a.revoked {
			continue
		}
		a.revoked = true
		s.pending[a.job]--
		s.revoked++
	}
	s.unstarted = s.unstarted[:0]
}

// preemptRunning stops every running span at the current time, crediting
// the consumed work fraction elapsed/(noise·t(width)) against the job. A
// span cut with zero elapsed time leaves no timeline entry; a job whose
// remaining fraction drops below doneTol is retired on the spot (its
// pending completion event, an instant away, is cancelled with the span).
func (s *state) preemptRunning() {
	for j := range s.runningOn {
		id := s.runningOn[j]
		if id == -1 {
			continue
		}
		sp := &s.spans[id]
		elapsed := s.now - sp.start
		sp.cancelled = true
		for _, p := range sp.procs {
			s.running[p] = -1
		}
		s.runningOn[j] = -1
		if elapsed > 0 {
			consumed := elapsed / (s.noise[j] * s.tr.Jobs[j].Task.Time(sp.width))
			s.remaining[j] -= consumed
			if s.remaining[j] < 0 {
				s.remaining[j] = 0
			}
			s.timeline = append(s.timeline, verify.Span{
				Job: j, Width: sp.width, Procs: sp.procs,
				Start: sp.start, Duration: elapsed, Noise: s.noise[j],
			})
			s.preemptions++
		}
		if s.remaining[j] <= doneTol {
			s.markDone(j)
		}
	}
}

// residual builds the planning instance for the given jobs on a submachine
// of mf processors, from the trace's compiled tables.
func (s *state) residual(name string, mf int, jobs []int) (*instance.Instance, error) {
	rem := make([]float64, len(jobs))
	for k, j := range jobs {
		rem[k] = s.remaining[j]
	}
	return instance.Residual(s.compiled, name, mf, jobs, rem)
}

// residualCompiled is residual plus the derived λ-breakpoint tables: rows
// of jobs with all work remaining are reused bitwise from the trace's
// compiled view instead of recompiled (instance.ResidualCompiled), which
// is what makes per-replan planning cheap enough to warm-start.
func (s *state) residualCompiled(name string, mf int, jobs []int) (*instance.Instance, *instance.Compiled, error) {
	rem := make([]float64, len(jobs))
	for k, j := range jobs {
		rem[k] = s.remaining[j]
	}
	return instance.ResidualCompiled(s.compiled, name, mf, jobs, rem)
}

// solve runs the planning kernel on a residual instance through the
// (possibly shared) engine, accounting the rescheduling cost.
func (s *state) solve(in *instance.Instance) (engine.Solution, error) {
	t := time.Now()
	out := s.eng.ScheduleWith(in, s.opts, 0)
	s.observeSolve(t)
	return s.account(out, in.Name)
}

// solveWarm is solve against the run's warm replanning lineage: the
// residual's precompiled tables feed the solve directly and the lineage
// seed is advanced for the next replan. Solutions are bit-identical to
// solve's (the warm-vs-cold suites enforce it); only probe accounting
// differs.
func (s *state) solveWarm(in *instance.Instance, rc *instance.Compiled) (engine.Solution, error) {
	t := time.Now()
	out := s.eng.ScheduleWarm(in, rc, s.opts, 0, s.ws)
	s.observeSolve(t)
	return s.account(out, in.Name)
}

// observeSolve reports one planning solve's wall-clock to the configured
// observer; a nil observer costs one branch.
func (s *state) observeSolve(start time.Time) {
	if s.cfg.SolveObserver != nil {
		s.cfg.SolveObserver(time.Since(start).Nanoseconds())
	}
}

func (s *state) account(out engine.Outcome, name string) (engine.Solution, error) {
	if out.Err != nil {
		return engine.Solution{}, fmt.Errorf("sim: planning %q: %w", name, out.Err)
	}
	s.plans++
	s.probes += out.Probes
	s.synth += out.Synthesized
	return out.Solution, nil
}

// commitPlan maps a static plan for residual jobs `jobs` on the submachine
// `procs` (plan processor v = procs[v]) onto cluster commitments, offset
// to start at the current time. Placements are committed in start order so
// the executor's per-processor FIFO reproduces the plan's ordering.
func (s *state) commitPlan(sol engine.Solution, jobs, procs []int) {
	pls := sol.Plan.Placements
	order := make([]int, len(pls))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pls[order[a]].Start < pls[order[b]].Start })
	for _, pi := range order {
		pl := pls[pi]
		mapped := make([]int, 0, pl.Width)
		for _, v := range pl.Processors() {
			mapped = append(mapped, procs[v])
		}
		sort.Ints(mapped)
		s.commit(jobs[pl.Task], pl.Width, mapped, s.now+pl.Start)
	}
}

// queueDepth counts waiting jobs (arrived, unfinished, not executing).
func (s *state) queueDepth() int {
	d := 0
	for j := range s.arrived {
		if s.waiting(j) {
			d++
		}
	}
	return d
}

// accrue integrates the queue-depth step function up to t.
func (s *state) accrue(t float64) {
	if t > s.lastT {
		s.queueArea += float64(s.queueDepth()) * (t - s.lastT)
		s.lastT = t
	}
}

// Run simulates the trace under the configured policy and returns the
// executed timeline with its metrics. It is a pure function of its
// arguments; a shared Engine's cache state can additionally show through
// in exactly two fields, Metrics.Probes and Metrics.Synthesized (memo
// hits report the memoised solve's accounting), never in the timeline or
// any other metric — see the package comment.
func Run(tr *workload.Trace, cfg Config) (*Result, error) {
	if tr == nil {
		return nil, ErrNilTrace
	}
	if cfg.Noise < 0 || cfg.Noise >= 1 || math.IsNaN(cfg.Noise) {
		return nil, fmt.Errorf("%w: %v", ErrBadNoise, cfg.Noise)
	}
	pol, err := newPolicy(cfg)
	if err != nil {
		return nil, err
	}
	if tr.Edges != nil && !pol.dagAware() {
		return nil, fmt.Errorf("%w (trace %q, policy %q)", ErrEdgesNeedDAGPolicy, tr.Name, pol.name())
	}
	eng := cfg.Engine
	if eng == nil {
		eng = engine.New(engine.Config{Workers: 1})
	}
	s, err := newState(tr, cfg, eng, pol.planner())
	if err != nil {
		return nil, err
	}
	pol.init(s)

	for s.events.Len() > 0 && !s.allDone() {
		e := heap.Pop(&s.events).(event)
		s.accrue(e.t)
		s.now = e.t
		switch e.kind {
		case evArrival:
			s.arrived[e.arg] = true
			if err := pol.onArrival(s, e.arg); err != nil {
				return nil, err
			}
		case evCompletion:
			if s.spans[e.arg].cancelled {
				break
			}
			s.finish(e.arg)
			if err := pol.onCompletion(s, s.spans[e.arg].job); err != nil {
				return nil, err
			}
		case evTick:
			if err := pol.onTick(s); err != nil {
				return nil, err
			}
			if !s.allDone() {
				next := s.now + pol.period()
				if next <= s.now {
					// An epoch below the clock's ulp would re-tick this
					// instant forever; fail instead of hanging.
					return nil, fmt.Errorf("%w: epoch %g does not advance the clock at t=%g",
						ErrStalled, pol.period(), s.now)
				}
				s.push(next, evTick, 0)
			}
		case evWake:
			// Pure rescan trigger for a planned start reached.
		}
		s.tryStarts()
		if d := s.queueDepth(); d > s.queueMax {
			s.queueMax = d
		}
	}
	if !s.allDone() {
		return nil, fmt.Errorf("%w: %d of %d jobs finished at t=%g (policy %s)",
			ErrStalled, s.doneCount, tr.N(), s.now, pol.name())
	}
	return s.result(pol.name()), nil
}

// result assembles metrics from the executed state.
func (s *state) result(policy string) *Result {
	m := Metrics{
		Plans:       s.plans,
		Probes:      s.probes,
		Synthesized: s.synth,
		Preemptions: s.preemptions,
		Revoked:     s.revoked,
		Spans:       len(s.timeline),
		QueueMax:    s.queueMax,
	}
	var flowSum, area float64
	for j, c := range s.completed {
		if c > m.Makespan {
			m.Makespan = c
		}
		f := c - s.tr.Jobs[j].Arrival
		flowSum += f
		if f > m.MaxFlow {
			m.MaxFlow = f
		}
	}
	m.MeanFlow = flowSum / float64(s.tr.N())
	for _, sp := range s.timeline {
		area += float64(sp.Width) * sp.Duration
	}
	if m.Makespan > 0 {
		m.Utilization = area / (float64(s.tr.M) * m.Makespan)
		m.QueueMean = s.queueArea / m.Makespan
	}
	m.LowerBound = lowerbound.SquashedArea(s.full)
	for _, j := range s.tr.Jobs {
		if lb := j.Arrival + j.Task.MinTime(); lb > m.LowerBound {
			m.LowerBound = lb
		}
	}
	return &Result{
		Policy:      policy,
		Timeline:    s.timeline,
		Noise:       s.noise,
		Completions: s.completed,
		Metrics:     m,
	}
}
