package engine

import (
	"math"
	"sync/atomic"

	"malsched/internal/fphash"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/schedule"
)

// MemoEntry is one memoised answer together with the exact words it was
// keyed on: the workload's rows (each task's width and the bit pattern of
// every time) and the resolved options (Eps's bits, Compact, the solver or
// portfolio, the precedence edges). M and N ride in the cache key. A probe
// answers from an entry only after comparing every word, so the 64-bit
// fingerprint picks the slot and never decides the answer: two workloads
// that share a key — by accident or crafted — share nothing else, and the
// later one's solve takes the slot over.
//
// An entry is immutable once cached, apart from its encoded answers, one
// slot per serving codec, which a serving layer attaches once each
// (SetEncoded) and reads back through Engine.MemoBytes.
type MemoEntry struct {
	sol  Solution // sol.Plan is &plan
	plan schedule.Schedule

	// off and times are the rows in instance.Compiled's layout. A solve
	// that resolved compiled tables references the Compiled's own slabs
	// (not the Compiled, whose lazily built axis the memo does not keep),
	// so remembering them costs nothing.
	off   []int
	times []float64

	eps       uint64
	compact   bool
	solver    string   // resolved; unused when portfolio is set
	portfolio []string // nil unless the options named one
	// edges is the graph in precedence.AppendFlatEdges' layout — the
	// list count, then each list's length and indices, as hashEdges folds
	// it — and nil for no graph.
	edges []int

	encoded [numEncodings]atomic.Pointer[[]byte]
}

// Encoding names an entry's slot for an encoded answer: one per codec a
// serving layer answers in.
type Encoding int

const (
	EncodingBinary Encoding = iota
	EncodingJSON
	numEncodings
)

// newEntry builds the memo entry of a solved instance: a copy of the
// solution (the plan inside the entry, its processor sets and the flattened
// edges in one array) and the identity words. off and times are the rows
// when the caller holds them as compiled slabs proven equal to in's, nil
// otherwise.
func newEntry(in *instance.Instance, o Options, sol Solution, off []int, times []float64) *MemoEntry {
	en := &MemoEntry{
		sol:     sol,
		off:     off,
		times:   times,
		eps:     math.Float64bits(o.Eps),
		compact: o.Compact,
		solver:  o.solverName(),
	}
	en.sol.Trace = nil // traces never enter the memo (see clone)
	nEdges := 0
	if o.Edges != nil {
		nEdges = 1 + len(o.Edges)
		for _, ss := range o.Edges {
			nEdges += len(ss)
		}
	}
	nOff := 0
	if off == nil {
		nOff = len(in.Tasks) + 1
	}
	// One array holds the plan's processor sets, the edges and, without
	// compiled slabs, the row offsets.
	var words []int
	if sol.Plan != nil {
		words = sol.Plan.CloneInto(&en.plan, nEdges+nOff)
		en.sol.Plan = &en.plan
	} else {
		words = make([]int, nEdges+nOff)
	}
	if o.Edges != nil {
		en.edges = precedence.AppendFlatEdges(words[:0:nEdges], o.Edges)
	}
	if off == nil {
		en.off = words[nEdges:]
		total := 0
		for i, t := range in.Tasks {
			en.off[i] = total
			total += t.MaxProcs()
		}
		en.off[len(in.Tasks)] = total
		en.times = make([]float64, 0, total)
		for _, t := range in.Tasks {
			for p := 1; p <= t.MaxProcs(); p++ {
				en.times = append(en.times, t.Time(p))
			}
		}
	}
	if len(o.Portfolio) > 0 {
		en.portfolio = append([]string(nil), o.Portfolio...)
	}
	return en
}

// matches reports whether the entry was keyed on exactly in's rows and o's
// resolved options.
func (en *MemoEntry) matches(in *instance.Instance, o Options) bool {
	return en.sameOptions(o) && sameRows(in, en.off, en.times)
}

// sameOptions compares the option words withOptions folds, in resolved
// form: a portfolio's member list, or else the solver name; Trace is not
// among them.
func (en *MemoEntry) sameOptions(o Options) bool {
	if en.eps != math.Float64bits(o.Eps) || en.compact != o.Compact || len(en.portfolio) != len(o.Portfolio) {
		return false
	}
	if len(o.Portfolio) > 0 {
		for i, m := range o.Portfolio {
			if en.portfolio[i] != m {
				return false
			}
		}
	} else if en.solver != o.solverName() {
		return false
	}
	return precedence.SameFlatEdges(en.edges, o.Edges)
}

// sameRows reports whether in's rows are exactly off/times (the layout of
// instance.Compiled.Rows): every width, every time's bit pattern.
func sameRows(in *instance.Instance, off []int, times []float64) bool {
	if len(off) != len(in.Tasks)+1 {
		return false
	}
	for i := range in.Tasks {
		if !in.Tasks[i].SameTimes(times[off[i]:off[i+1]]) {
			return false
		}
	}
	return true
}

// Encoded returns the answer attached to the entry in encoding enc, nil
// before one is.
func (en *MemoEntry) Encoded(enc Encoding) []byte {
	if p := en.encoded[enc].Load(); p != nil {
		return *p
	}
	return nil
}

// SetEncoded attaches the entry's answer in a serving layer's encoding enc,
// for Engine.MemoBytes to hand back. The caller owns the check that makes
// this sound: b encodes exactly this entry's solution, and that solution
// passed the caller's verification against a workload whose words the entry
// proved equal. Only the first attachment per encoding is kept. The engine
// never reads the bytes.
func (en *MemoEntry) SetEncoded(enc Encoding, b []byte) {
	en.encoded[enc].CompareAndSwap(nil, &b)
}

// MemoBytes is the memo probe of a caller that walked its own encoding of
// a request instead of building the instance — a request frame of either
// codec, say (wire.Frame). prefix is the workload's fingerprint
// state as instanceHash folds it, m and n the machine size and task count,
// o the resolved options, and same compares the caller's rows with an
// entry's (in instance.Compiled.Rows's layout). It returns the bytes
// attached to the entry in encoding enc (SetEncoded) when an entry holds
// exactly those words and carries such bytes; that counts as a scheduled
// instance and a memo hit, as any hit does. Otherwise it returns nil and
// counts nothing: the caller's full path probes again, and counts there.
func (e *Engine) MemoBytes(enc Encoding, prefix fphash.Hash, m, n int, o Options, same func(off []int, times []float64) bool) []byte {
	if e.memo == nil {
		return nil
	}
	en, ok := e.memo.get(withOptions(prefix, m, n, o))
	if !ok {
		return nil
	}
	b := en.Encoded(enc)
	if b == nil || !en.sameOptions(o) || !same(en.off, en.times) {
		return nil
	}
	e.scheduled.Add(1)
	e.hits.Add(1)
	return b
}
