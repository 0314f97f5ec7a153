package engine

import (
	"sync"
	"time"

	"malsched/internal/core"
	"malsched/internal/instance"
)

// WarmState is the carried-over solving state of one replanning lineage —
// a sequence of related residual instances solved one after another, such
// as the replan-on-arrival policy's successive queues or a service client
// re-submitting a shrinking batch. It pins one core.Scratch for the
// lineage's lifetime (so λ-segment caches and delta-synced knapsack
// columns survive across re-solves instead of being rebuilt per replan)
// and threads one core.WarmStart seed through consecutive solves (so each
// solve synthesizes the probe outcomes the compiled tables certify).
//
// Correctness never depends on the state matching the instance: a
// mismatched lineage costs probes, not answers — ScheduleWarm's results
// are bit-identical to ScheduleWith's on every input (the warm-vs-cold
// equivalence suites enforce it).
//
// A WarmState serialises its solves: concurrent ScheduleWarm calls on the
// same state queue on its mutex, which is the intended semantics for a
// lineage (its re-solves are ordered by definition).
type WarmState struct {
	mu      sync.Mutex
	lineage uint64
	sc      *core.Scratch
	seed    core.WarmStart
	prev    *instance.Compiled
	solves  uint64
}

// Lineage returns the identifier the state was created under.
func (w *WarmState) Lineage() uint64 { return w.lineage }

// Solves returns how many warm solves ran against this state.
func (w *WarmState) Solves() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.solves
}

// NewWarmState creates a fresh lineage state, unregistered: the caller
// owns it and threads it through ScheduleWarm explicitly (the simulator's
// replan policy does this — one lineage per run). For a shared, bounded
// registry keyed by lineage fingerprint use WarmFor.
func (e *Engine) NewWarmState(lineage uint64) *WarmState {
	return &WarmState{lineage: lineage, sc: core.NewScratch()}
}

// WarmFor returns the registered warm state of the lineage, creating it on
// first use. The registry is an LRU sized with the memo (an evicted
// lineage simply re-solves its next request cold-seeded); with the memo
// disabled (negative MemoCapacity) every call returns a fresh state. The
// scheduling service maps request lineage headers here, so batch
// re-submissions land on their carried-over state.
func (e *Engine) WarmFor(lineage uint64) *WarmState {
	if e.warm == nil {
		return e.NewWarmState(lineage)
	}
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	k := memoKey{hash: lineage}
	if ws, ok := e.warm.get(k); ok {
		return ws
	}
	ws := e.NewWarmState(lineage)
	e.warm.put(k, ws)
	return ws
}

// ScheduleWarm is ScheduleWith against a replanning lineage: the solve
// runs in warm mode on ws's pinned scratch and seed, and on success the
// seed is advanced in place for the lineage's next call. A non-nil c
// supplies the instance's precompiled tables (typically from
// instance.ResidualCompiled or CompiledFor); nil resolves them from the
// compiled cache as usual. A nil ws degrades to a plain cold ScheduleWith.
//
// The memo is shared with the cold paths: a hit returns the memoised
// solution without touching the lineage state (warm and cold solutions
// are interchangeable by the bit-identity invariant — only their probe
// accounting differs).
func (e *Engine) ScheduleWarm(in *instance.Instance, c *instance.Compiled, o Options, timeout time.Duration, ws *WarmState) Outcome {
	return e.warmRun(in, c, o, timeout, cacheKeys{}, ws)
}

// warmRun is ScheduleWarm with the caller's cache keys.
func (e *Engine) warmRun(in *instance.Instance, c *instance.Compiled, o Options, timeout time.Duration, keys cacheKeys, ws *WarmState) Outcome {
	if ws == nil {
		return e.runWith(0, in, o, timeout, keys, c, nil)
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := e.runWith(0, in, o, timeout, keys, c, ws)
	if out.Err == nil && !out.FromMemo {
		ws.solves++
	}
	return out
}
