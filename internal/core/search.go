package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"malsched/internal/instance"
	"malsched/internal/lowerbound"
	"malsched/internal/schedule"
)

// Options drives Approximate.
type Options struct {
	// Eps is the dichotomic-search tolerance of §2.2: the search stops
	// when the accepted and rejected guesses are within a (1+Eps) factor,
	// giving an overall guarantee ρ(1+Eps). Default 1e-3.
	Eps float64
	// Compact post-processes the final schedule with schedule.Compact
	// (never increases the makespan; off by default to match the paper's
	// structures exactly).
	Compact bool
	// Compiled, when non-nil, supplies the instance's precompiled
	// λ-breakpoint tables (instance.Compile) and must describe exactly the
	// instance being solved (same machine size and time tables; names may
	// differ — the tables are name-independent). When nil, Approximate
	// compiles the instance itself before the first probe and drops the
	// private tables from Scratch again on return. Either way every
	// probe of the search shares the same immutable tables; callers
	// solving repeated shapes (the engine's compiled cache, the
	// scheduling service) pass their cached value so compilation happens
	// once per workload, not once per search.
	Compiled *instance.Compiled
	// Prober, when non-nil, replaces the paper's dual step (DualProber) as
	// the evaluator of deadline guesses. Tests instrument it.
	Prober Prober
	// Scratch, when non-nil, supplies the reusable working memory of the
	// probes. A nil Scratch allocates a private one per call (still shared
	// across that search's probes). Callers scheduling many instances pool
	// a Scratch per worker; results never alias it.
	Scratch *Scratch
	// Interrupt, when non-nil, aborts the search with ErrInterrupted as
	// soon as the channel is closed. The search polls it between probes
	// and between the constructions inside a probe (the O(n log n)-or-
	// worse units of work), which is how the engine implements
	// per-instance timeouts without leaking goroutines.
	Interrupt <-chan struct{}
	// Trace, when non-nil, records the probe trajectory into the
	// given SolveTrace (appending to Probes, overwriting SearchNS). Tracing
	// is observation only: it cannot change the search path or the result,
	// warm or cold (the golden and differential suites run traced to
	// enforce it).
	Trace *SolveTrace
	// WarmStart, when non-nil, switches the search to warm mode: probe
	// outcomes decided by the compiled segment tables alone are
	// synthesized without running the dual step, and on success the
	// WarmStart is updated in place with this search's outcome for the
	// next solve of the lineage. The result is bit-identical to a cold
	// solve — only Probes and Synthesized change. A zero-valued (but
	// non-nil) seed enables warm mode with no prior.
	WarmStart *WarmStart
}

// Result is the outcome of Approximate.
type Result struct {
	// Schedule is the best schedule found; always valid and complete.
	Schedule *schedule.Schedule
	// Makespan is its makespan.
	Makespan float64
	// LowerBound is a certified lower bound on the optimal makespan
	// (max of the trivial bounds and every certified-rejected guess), so
	// Makespan/LowerBound bounds the true approximation ratio.
	LowerBound float64
	// AcceptedLambda is the smallest accepted guess.
	AcceptedLambda float64
	// Probes counts dual steps performed.
	Probes int
	// Synthesized counts probe outcomes that a warm search resolved from
	// the compiled segment tables without running the dual step (always 0
	// without Options.WarmStart). The cold search's probe count is
	// Probes + Synthesized.
	Synthesized int
	// UnprovenRejects counts RejectUnproven outcomes. The paper's theorems
	// imply 0 for every monotone instance; the experiment suite reports it
	// as the reproduction's health metric (a non-zero value would also void
	// the LowerBound-relative ratio guarantee).
	UnprovenRejects int
	// Branch names the construction of the returned schedule.
	Branch string
}

// Ratio returns Makespan / LowerBound.
func (r Result) Ratio() float64 { return r.Makespan / r.LowerBound }

// ErrNoSchedule is returned when no guess was accepted; with monotone
// instances this cannot happen (Theorem 1 accepts every λ ≥ OPT on small
// machines, Theorems 2–3 on large ones) and indicates a non-monotone
// instance fed around validation.
var ErrNoSchedule = errors.New("core: dual search found no acceptable deadline guess")

// ErrInterrupted is returned when Options.Interrupt fired before the search
// finished.
var ErrInterrupted = errors.New("core: search interrupted")

// ErrZeroLowerBound is returned when the instance admits no positive
// trivial lower bound — no tasks, or all-zero execution times on an
// instance hand-rolled around validation. The doubling phase cannot grow a
// guess from 0 (hi *= 2 never moves), so the search refuses the instance
// instead of spinning on it.
var ErrZeroLowerBound = errors.New("core: trivial lower bound is zero (empty or zero-work instance)")

// ErrOverflow is returned when the instance's trivial lower bound is not
// finite — execution times (or their sum) overflow float64. Valid tasks
// have finite profiles, but the total-work bound sums them, and a fuzzer
// (or a caller with ~1e308-scale times) can push that sum to +Inf; the
// bisection interval [Inf, Inf] could never converge, so the search refuses
// the instance up front.
var ErrOverflow = errors.New("core: trivial lower bound overflows float64")

// search is the state of the dichotomic dual search: the result under
// construction, the incumbent schedule and the current bracketing interval.
// run mutates it through merge, one probe outcome at a time.
//
// No guess is ever probed twice, by construction rather than bookkeeping:
// every probed guess becomes an interval endpoint (doubling guesses are
// successive floors, bisection guesses the new lo or hi), every future
// bisection guess is a strictly interior midpoint, and the collapse guard
// stops the search once the interval reaches float resolution — the
// instrumented-prober tests assert the resulting probe counts.
type search struct {
	in        *instance.Instance
	c         *instance.Compiled
	p         Params
	eps       float64
	prober    Prober
	interrupt <-chan struct{}

	res    Result
	best   *schedule.Schedule
	bestMk float64

	// borrow is the Scratch of a search on the default prober: its probes
	// are dualStep's, un-copied, so the incumbent is kept in that Scratch
	// too and the one Schedule returned is allocated after the last probe.
	// Nil for a Prober (its results are owned).
	borrow *Scratch

	// warm is the seed of a warm-mode search (nil on cold solves), and
	// synthOK whether outcomes may be synthesized from the segment tables
	// (warm mode, default prober).
	warm    *WarmStart
	synthOK bool

	// trace, when non-nil, collects the probe trajectory
	// (Options.Trace). Written only in merge, read by nobody inside the
	// search — observation cannot steer it.
	trace *SolveTrace

	// lo is the largest rejected guess (search floor, starts at the
	// trivial lower bound); hi the smallest accepted one.
	lo, hi float64
}

// Approximate runs the dichotomic dual search of §2.2: starting from the
// certified trivial lower bound it doubles the guess until a dual step
// accepts, then bisects between the largest rejected and smallest accepted
// guesses. The returned schedule has makespan ≤ ρ(1+Eps)·OPT (Theorem 3
// plus the search argument); the reported LowerBound certifies the ratio a
// posteriori, instance by instance.
func Approximate(in *instance.Instance, opts Options) (Result, error) {
	p := DefaultParams()
	eps := opts.Eps
	if eps <= 0 {
		eps = 1e-3
	}
	prober := opts.Prober
	if prober == nil {
		prober = DualProber{}
	}
	sc := opts.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	c := opts.Compiled
	if c == nil {
		// Compile once per search: every probe — tens of them, all on this
		// one instance — then resolves canonical allotments by float
		// compares against one bound per deadline and reuses the segment
		// caches. Callers with a compiled cache pass Options.Compiled and
		// skip even this. Nobody else can ever look these tables up, so
		// they leave the Scratch with the call instead of pinning cache
		// entries until the wholesale clear.
		c = instance.Compile(in)
		defer sc.DropCompiled(c)
	}

	s := &search{
		in:        in,
		c:         c,
		p:         p,
		eps:       eps,
		prober:    prober,
		interrupt: opts.Interrupt,
		warm:      opts.WarmStart,
		trace:     opts.Trace,
	}
	if opts.Prober == nil {
		s.borrow = sc
	}
	if s.warm != nil {
		// Synthesis replays dualStep's certified pre-construction exits,
		// so it needs the real dual step behind the probes; an
		// instrumented prober's outcomes must keep deciding the search
		// alone.
		s.synthOK = opts.Prober == nil
	}
	s.res.LowerBound = lowerbound.Trivial(in)
	if !(s.res.LowerBound > 0) {
		return Result{}, fmt.Errorf("%w (instance %q)", ErrZeroLowerBound, in.Name)
	}
	if math.IsInf(s.res.LowerBound, 1) {
		return Result{}, fmt.Errorf("%w (instance %q)", ErrOverflow, in.Name)
	}
	s.lo = s.res.LowerBound // invariant: OPT ≥ certified LB; lo tracks search floor

	var t0 time.Time
	if s.trace != nil {
		t0 = time.Now()
	}
	err := s.run(sc)
	if s.trace != nil {
		s.trace.SearchNS = time.Since(t0).Nanoseconds()
	}
	if err != nil {
		return Result{}, err
	}
	s.updateWarm()

	if s.borrow != nil {
		s.best, s.borrow = owned(s.best), nil // the one copy-out; Compact's candidate is owned already
	}
	if opts.Compact {
		compacted := schedule.Compact(in, s.best)
		s.consider(compacted, compacted.Makespan(in))
	}
	s.res.Schedule = s.best
	s.res.Makespan = s.bestMk
	s.res.Branch = s.best.Algorithm
	return s.res, nil
}

// consider keeps the schedule (of makespan mk) if it strictly beats the
// incumbent; ties keep the earlier one, so probe order decides. A borrowed
// winner dies with the next probe, so keeping it is a scratch-to-scratch
// copy of its placements.
func (s *search) consider(sch *schedule.Schedule, mk float64) {
	if s.best == nil || mk < s.bestMk {
		if sc := s.borrow; sc != nil {
			sc.best.Algorithm, sc.best.Placements = sch.Algorithm, append(sc.best.Placements[:0], sch.Placements...)
			sch = &sc.best
		}
		s.best, s.bestMk = sch, mk
	}
}

// merge applies one probe outcome to the search result, in probe order.
// synth reports a warm outcome resolved from the segment tables (trace
// provenance only).
func (s *search) merge(lambda float64, r StepResult, synth bool) {
	if s.trace != nil {
		s.trace.Probes = append(s.trace.Probes, ProbeTrace{
			Lambda:      lambda,
			Segment:     s.c.Segment(lambda),
			Accepted:    r.Schedule != nil,
			Reject:      r.Reject,
			Certified:   r.Certified,
			Synthesized: synth,
		})
	}
	if r.Schedule != nil {
		s.consider(r.Schedule, r.Makespan)
	} else if r.Certified {
		if lambda > s.res.LowerBound {
			s.res.LowerBound = lambda
		}
	} else {
		s.res.UnprovenRejects++
	}
}

// converged reports the bisection termination test hi ≤ lo·(1+eps).
func (s *search) converged() bool { return !(s.hi > s.lo*(1+s.eps)) }

func (s *search) interrupted() bool {
	if s.interrupt == nil {
		return false
	}
	select {
	case <-s.interrupt:
		return true
	default:
		return false
	}
}

func (s *search) errInterrupted() error {
	return fmt.Errorf("%w (instance %q)", ErrInterrupted, s.in.Name)
}

// maxDoubling caps the doubling phase; 2^64 above the trivial lower bound
// covers every representable guess.
const maxDoubling = 64

// run is the search driver: one probe at a time, exactly the §2.2 loop.
func (s *search) run(sc *Scratch) error {
	step := func(l float64) StepResult {
		if r, ok := s.synthesize(l, sc); ok {
			s.res.Synthesized++
			s.merge(l, r, true)
			return r
		}
		s.res.Probes++
		var r StepResult
		if s.borrow != nil {
			r = dualStep(s.c, l, s.p, sc, s.interrupt)
		} else {
			r = s.prober.Probe(s.in, s.c, l, s.p, sc, s.interrupt)
		}
		if r.Interrupted {
			return r
		}
		s.merge(l, r, false)
		return r
	}

	// Doubling phase.
	hi := s.lo
	accepted := false
	for i := 0; i < maxDoubling; i++ {
		if s.interrupted() {
			return s.errInterrupted()
		}
		r := step(hi)
		if r.Interrupted {
			return s.errInterrupted()
		}
		if r.Schedule != nil {
			accepted = true
			break
		}
		s.lo = hi
		hi *= 2
	}
	if !accepted {
		return fmt.Errorf("%w (instance %q)", ErrNoSchedule, s.in.Name)
	}
	s.hi = hi
	s.res.AcceptedLambda = hi

	// Bisection phase.
	for !s.converged() {
		if s.interrupted() {
			return s.errInterrupted()
		}
		mid := (s.lo + s.hi) / 2
		if mid <= s.lo || mid >= s.hi {
			// The interval collapsed to float resolution; no further
			// guess can shrink it (and any repeat of an endpoint guess
			// would re-pay for a probe — see the search type's
			// no-duplicate-probes invariant).
			break
		}
		r := step(mid)
		if r.Interrupted {
			return s.errInterrupted()
		}
		if r.Schedule != nil {
			s.hi = mid
			s.res.AcceptedLambda = mid
		} else {
			s.lo = mid
		}
	}
	return nil
}
