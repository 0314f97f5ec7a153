package malsched

import "malsched/internal/engine"

// EngineOptions tunes an Engine: Workers, MemoCapacity, Timeout and the
// Schedule options applied to every instance. It is the engine's own
// configuration type, documented field by field there; the zero value uses
// GOMAXPROCS workers, a memo of engine.DefaultMemoCapacity entries, no
// per-instance timeout and the paper's scheduling configuration.
type EngineOptions = engine.Config

// EngineStats is a snapshot of an Engine's counters.
type EngineStats = engine.Stats

// BatchResult pairs one scheduled instance with its result or error.
type BatchResult struct {
	// Index is the instance's position in the batch (arrival order for
	// streams).
	Index int
	// Instance is the submitted instance.
	Instance *Instance
	// Result holds the plan and certificates; zero when Err is non-nil.
	Result Result
	// Err reports this instance's failure without affecting the others.
	Err error
	// FromMemo reports that the result was answered from the memo.
	FromMemo bool
}

// Engine schedules batches and streams of instances at high throughput: a
// bounded worker pool around the same deterministic pipeline as Schedule,
// with reusable per-worker scratch buffers (the dual-approximation probes
// stop allocating their DP tables), an LRU memo for repeated workloads,
// per-instance timeouts and error isolation.
//
// An Engine is safe for concurrent use. ScheduleBatch returns bit-identical
// results to calling Schedule sequentially on each instance.
type Engine struct {
	e *engine.Engine
}

// NewEngine builds an Engine; see EngineOptions for the zero-value
// defaults.
func NewEngine(opts EngineOptions) *Engine {
	return &Engine{e: engine.New(opts)}
}

// Schedule runs one instance through the engine — memo and pooled scratch
// included — and returns its result.
func (e *Engine) Schedule(in *Instance) (Result, error) { return e.e.Schedule(in) }

// ScheduleBatch schedules every instance on the worker pool and returns one
// BatchResult per instance, in input order. Failures (errors, timeouts,
// panics) are isolated to their instance.
func (e *Engine) ScheduleBatch(ins []*Instance) []BatchResult {
	outs := e.e.ScheduleBatch(ins)
	res := make([]BatchResult, len(outs))
	for i, o := range outs {
		res[i] = batchResultOf(o)
	}
	return res
}

// ScheduleStream consumes instances from jobs until the channel is closed
// and emits one BatchResult per instance on the returned channel, which is
// closed after the last result. Index is the arrival order; under
// concurrency results may be emitted out of order.
func (e *Engine) ScheduleStream(jobs <-chan *Instance) <-chan BatchResult {
	// The facade and engine share the instance type, so the stream only
	// needs result mapping, not job copying.
	outs := e.e.ScheduleStream(jobs)
	res := make(chan BatchResult)
	go func() {
		defer close(res)
		for o := range outs {
			res <- batchResultOf(o)
		}
	}()
	return res
}

// Stats returns a snapshot of the engine's counters (scheduled instances,
// failures by class, memo hits/misses/occupancy).
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

func batchResultOf(o engine.Outcome) BatchResult {
	return BatchResult{Index: o.Index, Instance: o.In, Result: o.Solution, Err: o.Err, FromMemo: o.FromMemo}
}
