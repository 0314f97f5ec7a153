package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"malsched/internal/core"
	"malsched/internal/fphash"
	"malsched/internal/instance"
	"malsched/internal/precedence"
)

// DefaultMemoCapacity is the memo size used when Config.MemoCapacity is 0.
const DefaultMemoCapacity = 1024

// Config tunes an Engine; the facade re-exports it as
// malsched.EngineOptions. The zero value is usable: GOMAXPROCS workers, a
// DefaultMemoCapacity memo, no timeout, the paper's scheduling options.
type Config struct {
	// Workers bounds the number of instances scheduled concurrently;
	// ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MemoCapacity sizes the LRU memo of solved instances, keyed by a
	// name-independent fingerprint of the workload (machine size, every
	// profile) plus the scheduling options: repeated workloads — identical
	// profiles under any names — are answered from the memo. 0 means
	// DefaultMemoCapacity, negative disables memoisation entirely.
	MemoCapacity int
	// Timeout bounds the wall-clock time spent on one instance; 0 means
	// no limit. A timed-out instance fails alone with an error wrapping
	// ErrTimeout (the rest of its batch is unaffected) and does not
	// poison its worker (the dual search polls the deadline between its
	// units of work, so no goroutine outlives its job; the overshoot is
	// one construction, not one search).
	Timeout time.Duration
	// Schedule is the scheduling configuration applied to every instance
	// (same semantics as the Options passed to Solve and
	// malsched.Schedule).
	Schedule Options
}

// Engine schedules batches and streams of instances at high throughput:
// a bounded worker pool around the deterministic Solve pipeline, a pooled
// core.Scratch per worker so the dual-approximation hot path stops
// allocating, an LRU memo for repeated workloads, and per-instance error
// isolation (an instance that fails, times out or panics yields an Outcome
// with Err set; the rest of the batch is unaffected).
//
// An Engine is safe for concurrent use and never reorders results: batch
// outcome i is always instance i's.
type Engine struct {
	cfg     Config
	workers int
	memo    *lru[Solution]
	// compiled caches instance.Compiled values keyed by the workload-only
	// fingerprint (no options): batch siblings, memo-miss re-solves under
	// different options and service requests of a repeated shape all reuse
	// one set of λ-breakpoint tables. Sized with the memo and disabled
	// along with it (negative MemoCapacity).
	compiled *lru[*instance.Compiled]
	scratch  sync.Pool

	// warm is the bounded registry of replanning lineages (WarmFor);
	// warmMu makes get-or-create atomic. Sized with the memo and disabled
	// along with it.
	warm   *lru[*WarmState]
	warmMu sync.Mutex

	scheduled     atomic.Uint64
	errs          atomic.Uint64
	panics        atomic.Uint64
	timeouts      atomic.Uint64
	hits          atomic.Uint64
	misses        atomic.Uint64
	compileHits   atomic.Uint64
	compileMisses atomic.Uint64
	warmSolves    atomic.Uint64
	synthesized   atomic.Uint64
}

// ErrTimeout wraps every per-instance timeout failure.
var ErrTimeout = errors.New("engine: instance timed out")

// ErrNilInstance reports a nil instance submitted to the engine.
var ErrNilInstance = errors.New("engine: nil instance")

// ErrBadInstance wraps every admission rejection of a malformed instance
// (zero processors, no tasks, nil or non-monotone profiles — see
// instance.Check). Such instances used to surface as recovered panics with
// free-text messages; the typed error keeps a poisoned batch item
// diagnosable while its siblings succeed.
var ErrBadInstance = errors.New("engine: invalid instance")

// New builds an Engine from the config; see Config for the zero-value
// defaults.
func New(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	memoCap := cfg.MemoCapacity
	if memoCap == 0 {
		memoCap = DefaultMemoCapacity
	}
	e := &Engine{cfg: cfg, workers: workers}
	if memoCap > 0 {
		e.memo = newLRU[Solution](memoCap)
		e.compiled = newLRU[*instance.Compiled](memoCap)
		e.warm = newLRU[*WarmState](memoCap)
	}
	e.scratch.New = func() any { return core.NewScratch() }
	return e
}

// Outcome is the result of scheduling one submitted instance.
type Outcome struct {
	// Index is the instance's position in the batch (or arrival order in
	// a stream).
	Index int
	// In is the submitted instance.
	In *instance.Instance
	// Solution is the validated plan and certificates; zero when Err is
	// non-nil.
	Solution
	// Err reports a per-instance failure: scheduling error, ErrTimeout or
	// a recovered panic. Other instances are unaffected.
	Err error
	// FromMemo reports that the solution came from the memo.
	FromMemo bool
	// CompileNS is the wall-clock time the engine spent resolving compiled
	// λ-breakpoint tables for this job (a compiled-cache probe, plus
	// instance.Compile on a miss). 0 on a memo hit, when the caller supplied
	// the tables, and for solvers that never read them.
	CompileNS int64
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Scheduled counts instances accepted for scheduling (memo hits
	// included; nil and invalid instances excluded).
	Scheduled uint64
	// Errors counts failed instances of any kind; Panics and Timeouts
	// break out the two isolated failure classes also counted here.
	Errors   uint64
	Panics   uint64
	Timeouts uint64
	// MemoHits/MemoMisses count memo probes; MemoEntries is the current
	// resident count.
	MemoHits    uint64
	MemoMisses  uint64
	MemoEntries int
	// CompileHits/CompileMisses count compiled-instance cache probes (a
	// miss is one instance.Compile). With the cache disabled (negative
	// MemoCapacity) every table-consuming solve compiles fresh and counts as a
	// miss, CompileHits stays 0 and CompiledEntries stays 0; otherwise
	// CompiledEntries is the current resident count.
	CompileHits     uint64
	CompileMisses   uint64
	CompiledEntries int
	// WarmSolves counts solves executed in warm mode (memo hits excluded);
	// Synthesized sums the probe outcomes those solves resolved from the
	// segment tables without running a dual step. WarmEntries is the
	// resident lineage count of the WarmFor registry.
	WarmSolves  uint64
	Synthesized uint64
	WarmEntries int
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Scheduled:     e.scheduled.Load(),
		Errors:        e.errs.Load(),
		Panics:        e.panics.Load(),
		Timeouts:      e.timeouts.Load(),
		MemoHits:      e.hits.Load(),
		MemoMisses:    e.misses.Load(),
		CompileHits:   e.compileHits.Load(),
		CompileMisses: e.compileMisses.Load(),
		WarmSolves:    e.warmSolves.Load(),
		Synthesized:   e.synthesized.Load(),
	}
	if e.memo != nil {
		s.MemoEntries = e.memo.len()
	}
	if e.compiled != nil {
		s.CompiledEntries = e.compiled.len()
	}
	if e.warm != nil {
		s.WarmEntries = e.warm.len()
	}
	return s
}

// CompiledFor returns the compiled λ-breakpoint tables for the instance,
// from the compiled cache when one is configured (counting hits and
// misses; a miss compiles and caches). The returned tables may come from a
// renamed copy of the same workload — they are name-independent. The
// engine calls this itself after a memo miss; callers that want the tables
// ahead of the solve (residual derivation, benchmarks) call it directly and
// hand the result to ScheduleCompiled or ScheduleWarm.
func (e *Engine) CompiledFor(in *instance.Instance) *instance.Compiled {
	if in == nil {
		return nil
	}
	return e.compiledFor(in, nil)
}

// compiledFor is CompiledFor for a caller that already hashed the
// workload: prefix, when non-nil, is the memo key's workload prefix (see
// keys), and the compiled-cache key is its sum.
func (e *Engine) compiledFor(in *instance.Instance, prefix *fphash.Hash) *instance.Compiled {
	if e.compiled == nil {
		e.compileMisses.Add(1)
		return instance.Compile(in)
	}
	var k memoKey
	if prefix != nil {
		k = workloadKey(in, *prefix)
	} else {
		k = instanceKey(in)
	}
	if c, ok := e.compiled.get(k); ok {
		e.compileHits.Add(1)
		return c
	}
	e.compileMisses.Add(1)
	c := instance.Compile(in)
	e.compiled.put(k, c)
	return c
}

// solveFn is the pipeline the workers run; a package variable so tests can
// inject faults without crafting pathological instances.
var solveFn = solve

// Schedule runs one instance through the engine (memo and pooled scratch
// included) and returns its solution.
func (e *Engine) Schedule(in *instance.Instance) (Solution, error) {
	o := e.run(0, in)
	return o.Solution, o.Err
}

// ScheduleWith runs one instance under per-call scheduling options and
// timeout instead of the engine's configured ones, sharing the same pooled
// scratches and memo (entries are keyed by options, so differently-tuned
// calls never collide). A zero timeout means no limit. It is how the
// scheduling service maps per-request solver/timeout selection
// onto shared engines.
func (e *Engine) ScheduleWith(in *instance.Instance, o Options, timeout time.Duration) Outcome {
	return e.runWith(0, in, o, timeout, nil, nil, nil)
}

// ScheduleCompiled is ScheduleWith for callers that already computed
// Fingerprint(in, o): the memo probe reuses it instead of re-hashing every
// profile (ScheduleWith hashes once for both the memo and the compiled
// cache). The hash MUST equal Fingerprint(in, o): a stale one would alias
// memo entries.
// A non-nil c additionally supplies the instance's compiled λ-breakpoint
// tables (typically from CompiledFor, and describing the same workload as
// in — same machine size and time tables; names may differ); nil resolves
// them from the compiled cache after a memo miss, so a memo hit never pays
// for tables it does not read.
func (e *Engine) ScheduleCompiled(in *instance.Instance, c *instance.Compiled, o Options, timeout time.Duration, hash uint64) Outcome {
	return e.runWith(0, in, o, timeout, &hash, c, nil)
}

// ScheduleBatch schedules every instance and returns one outcome per
// instance, in input order. Failures are isolated per instance.
func (e *Engine) ScheduleBatch(ins []*instance.Instance) []Outcome {
	out := make([]Outcome, len(ins))
	workers := e.workers
	if workers > len(ins) {
		workers = len(ins)
	}
	if workers <= 1 {
		for i, in := range ins {
			out[i] = e.run(i, in)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ins) {
					return
				}
				out[i] = e.run(i, ins[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// ScheduleStream consumes instances from jobs until the channel is closed
// and emits one Outcome per instance on the returned channel, which is
// closed after the last outcome. Outcome.Index is the arrival order;
// under concurrency outcomes may be emitted out of order.
func (e *Engine) ScheduleStream(jobs <-chan *instance.Instance) <-chan Outcome {
	out := make(chan Outcome, e.workers)
	type job struct {
		idx int
		in  *instance.Instance
	}
	dispatch := make(chan job)
	go func() {
		idx := 0
		for in := range jobs {
			dispatch <- job{idx, in}
			idx++
		}
		close(dispatch)
	}()
	var wg sync.WaitGroup
	wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go func() {
			defer wg.Done()
			for j := range dispatch {
				out <- e.run(j.idx, j.in)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// run executes one job under the engine's configured options and timeout.
func (e *Engine) run(idx int, in *instance.Instance) Outcome {
	return e.runWith(idx, in, e.cfg.Schedule, e.cfg.Timeout, nil, nil, nil)
}

// runWith executes one job: admission check, memo probe, compiled-table
// resolution, pooled-scratch solve under the per-call deadline, panic
// recovery, memo fill. A non-nil hash supplies the caller-precomputed
// Fingerprint(in, opts); a non-nil ci supplies caller-precompiled tables
// (otherwise the compiled cache provides them after admission). A non-nil
// ws runs the solve in warm mode on the lineage's pinned scratch and seed
// (the caller must hold ws.mu; ScheduleWarm does).
func (e *Engine) runWith(idx int, in *instance.Instance, opts Options, timeout time.Duration, hash *uint64, ci *instance.Compiled, ws *WarmState) Outcome {
	out := Outcome{Index: idx, In: in}
	if in == nil {
		out.Err = ErrNilInstance
		e.errs.Add(1)
		return out
	}
	// Hashing the profiles here keys both caches: the memo key's workload
	// prefix is kept for the compiled-cache key a miss needs.
	var k memoKey
	var prefix *fphash.Hash
	if e.memo != nil {
		if hash != nil {
			k = memoKey{hash: *hash, m: in.M, n: in.N()}
		} else {
			var h fphash.Hash
			k, h = keys(in, opts)
			prefix = &h
		}
		if v, ok := e.memo.get(k); ok {
			e.scheduled.Add(1)
			e.hits.Add(1)
			out.Solution = clone(v)
			out.FromMemo = true
			return out
		}
		e.misses.Add(1)
	}

	// The admission gate sits after the memo probe: a hit proves a
	// same-profile workload already passed it (fingerprinting tolerates
	// malformed profiles, and a poisoned profile cannot hash-match a
	// validated one short of the accepted 64-bit collision), so the hot
	// memo path skips the O(n·m) re-validation.
	if err := instance.Check(in); err != nil {
		out.Err = fmt.Errorf("%w: %w", ErrBadInstance, err)
		e.errs.Add(1)
		return out
	}
	// Precedence edges are part of the admitted input: a hostile successor
	// list (wrong shape, out-of-range endpoint, cycle) fails typed here,
	// before any solver can index with it.
	if opts.Edges != nil {
		if err := precedence.ValidateEdges(in.N(), opts.Edges); err != nil {
			out.Err = fmt.Errorf("%w: %w", ErrBadInstance, err)
			e.errs.Add(1)
			return out
		}
	}
	e.scheduled.Add(1)

	// Resolve the compiled λ-breakpoint tables after admission (a poisoned
	// instance never reaches Compile) and after the memo probe (a hit
	// needs no tables at all). Solvers without a dual search skip them —
	// nothing would read them.
	if ci == nil && WantsCompiled(opts) {
		t := time.Now()
		ci = e.compiledFor(in, prefix)
		out.CompileNS = time.Since(t).Nanoseconds()
	}

	var sc *core.Scratch
	var warm *core.WarmStart
	if ws != nil {
		// The lineage's pinned scratch carries the λ-segment caches and
		// delta-synced knapsack columns across residual re-solves; retire
		// the previous residual's cache entries when the tables moved on.
		sc = ws.sc
		warm = &ws.seed
		if ci != ws.prev {
			if ws.prev != nil {
				sc.DropCompiled(ws.prev)
			}
			ws.prev = ci
		}
	} else {
		sc = e.scratch.Get().(*core.Scratch)
		defer e.scratch.Put(sc)
	}

	var interrupt <-chan struct{}
	if timeout > 0 {
		deadline := make(chan struct{})
		t := time.AfterFunc(timeout, func() { close(deadline) })
		defer t.Stop()
		interrupt = deadline
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				e.panics.Add(1)
				out.Solution = Solution{}
				out.Err = fmt.Errorf("engine: panic scheduling instance %q: %v", in.Name, r)
			}
		}()
		out.Solution, out.Err = solveFn(in, opts, sc, interrupt, ci, warm)
	}()

	if errors.Is(out.Err, core.ErrInterrupted) {
		e.timeouts.Add(1)
		out.Err = fmt.Errorf("%w: instance %q exceeded %v", ErrTimeout, in.Name, timeout)
	}
	if out.Err != nil {
		e.errs.Add(1)
		return out
	}
	if ws != nil {
		e.warmSolves.Add(1)
		e.synthesized.Add(uint64(out.Solution.Synthesized))
	}
	if e.memo != nil {
		e.memo.put(k, clone(out.Solution))
	}
	return out
}
