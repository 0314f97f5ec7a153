package engine

import (
	"math"

	"malsched/internal/fphash"
	"malsched/internal/instance"
)

// memoKey is the cache slot of a (workload, options) pair in the memo, or
// of a workload in the compiled cache. The hash is the module's word-wise
// fingerprint (internal/fphash) over the semantically relevant input —
// machine size, every task's full time table, and the scheduling options —
// deliberately excluding the instance and task names: plans reference tasks
// by index only, so renamed copies of the same workload are memo hits. The
// key only picks the slot. fphash is not collision resistant — one free
// word reaches any state, so a client can craft a second workload onto a
// key — and every entry therefore keeps the words it was keyed on: a probe
// compares them all (MemoEntry.matches, sameRows against a Compiled's own
// slabs) and treats a mismatch as a miss, counted in Stats.Collisions.
type memoKey struct {
	hash uint64
	m, n int
}

// Fingerprint returns the 64-bit name-independent workload hash the memo
// keys on: machine size, every task's full time table, and the scheduling
// options in resolved form. Renamed copies of the same workload under the
// same options collide on purpose. The scheduling service shards engines by
// this value so repeated workloads always land on the shard whose memo
// already holds them.
func Fingerprint(in *instance.Instance, o Options) uint64 {
	return fingerprint(in, o).hash
}

// WorkloadFingerprintDAG returns the workload-only hash — machine size,
// every task's full time table and the precedence DAG, no options. It is
// the routing key of the multi-shard tier for JSON requests
// (internal/router; the binary codec's wire.RouteKey folds the identical
// stream off the wire bytes, keeping JSON and binary routing decisions
// aligned): consistent-hash routing by this value keeps repeated workloads
// on the shard whose memo, compiled-table and warm caches already hold
// them, and it is options-independent so the same workload under different
// solver options still shares locality. nil edges fold nothing, so a
// graphless workload hashes as instanceHash alone, while non-nil edges —
// even the empty DAG — fold a marker plus the full successor lists, the
// same stream the memo fingerprint hashes: a DAG request never lands on
// (and never shares warm state with) the shard of its independent
// projection.
func WorkloadFingerprintDAG(in *instance.Instance, edges [][]int) uint64 {
	h := instanceHash(in)
	hashEdges(&h, edges)
	return h.Sum()
}

// hashEdges folds a successor-list DAG into a fingerprint: nothing for nil
// (a graphless request hashes as its independent workload), a marker plus
// the full lists otherwise.
// Shared by the memo fingerprint, WorkloadFingerprintDAG and — stream-for-
// stream — wire.RouteKey's binary fold.
func hashEdges(h *fphash.Hash, edges [][]int) {
	if edges == nil {
		return
	}
	h.String("edges")
	h.Word(uint64(len(edges)))
	for _, ss := range edges {
		h.Word(uint64(len(ss)))
		for _, j := range ss {
			h.Word(uint64(j))
		}
	}
}

// instanceHash is the workload-only prefix of the fingerprint: machine
// size and every task's full time table, no options. The compiled-instance
// cache keys on it alone, because compiled breakpoint tables depend only on
// the workload — memo-miss re-solves of the same shape under different
// options still skip recompilation.
func instanceHash(in *instance.Instance) fphash.Hash {
	h := fphash.New()
	h.Word(uint64(in.M))
	h.Word(uint64(in.N()))
	for _, t := range in.Tasks {
		h.Word(uint64(t.MaxProcs()))
		for p := 1; p <= t.MaxProcs(); p++ {
			h.Word(math.Float64bits(t.Time(p)))
		}
	}
	return h
}

// instanceKey is the compiled-cache key of a workload.
func instanceKey(in *instance.Instance) memoKey {
	return workloadKey(in, instanceHash(in))
}

// workloadKey sums a workload prefix into the compiled-cache key.
func workloadKey(in *instance.Instance, h fphash.Hash) memoKey {
	return memoKey{hash: h.Sum(), m: in.M, n: in.N()}
}

// fingerprint computes the memo key of an instance under the given options.
func fingerprint(in *instance.Instance, o Options) memoKey {
	memo, _ := keyPair(in, o)
	return memo
}

// keyPair computes the memo key in one pass over the profiles and returns
// the workload prefix it forked from: after a memo miss, workloadKey sums
// the prefix into the compiled-cache key without a second pass.
func keyPair(in *instance.Instance, o Options) (memo memoKey, prefix fphash.Hash) {
	prefix = instanceHash(in)
	return withOptions(prefix, in.M, in.N(), o), prefix
}

// withOptions continues the workload prefix h of an m-processor, n-task
// workload into the memo key under o.
func withOptions(h fphash.Hash, m, n int, o Options) memoKey {
	h.Word(math.Float64bits(o.Eps))
	if o.Compact {
		h.Word(1)
	} else {
		h.Word(0)
	}
	// The solver identity is hashed in resolved form, so an empty Solver
	// and an explicit "mrt" share memo entries. Trace is deliberately
	// excluded: tracing is pure observation (enforced by the golden,
	// determinism and trace tests), so traced and untraced results are
	// interchangeable.
	if len(o.Portfolio) > 0 {
		h.String("portfolio")
		h.Word(uint64(len(o.Portfolio)))
		for _, m := range o.Portfolio {
			h.String(m)
		}
	} else {
		h.String(o.solverName())
	}
	// The edge structure is part of the key: a DAG must never alias its
	// independent-task projection (or a differently-wired DAG over the same
	// profiles) in the memo or the shard routing. nil edges hash to nothing;
	// non-nil edges — even the empty DAG — append a marker plus the full
	// successor lists.
	hashEdges(&h, o.Edges)
	return memoKey{hash: h.Sum(), m: m, n: n}
}
