package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"malsched/internal/fphash"
	"malsched/internal/instance"
	"malsched/internal/task"
)

// Frame is a /v1/schedule request walked once into one layout, whichever
// codec carried it: ReadFrame fills it from the binary grammar and
// ReadJSONFrame from the JSON subset. Every string is a window of the body;
// every task's row is a window of words, little-endian IEEE-754 words — the
// body itself for a binary frame, so that walk copies nothing, and a pooled
// slab the JSON walk appends each float's bits to. The workload prefix and
// the route key are folded from that layout, so the router keys a request
// and the shard probes its memo (SameWorkload) without building an instance;
// Decode builds and validates one. A frame holds its body until Release,
// which hands the frame back to the pool: neither may be used after.
type Frame struct {
	// Name is the instance name, a window of the body.
	Name []byte
	// M and N are the machine size and the task count the body states. A
	// JSON m below zero reads as the two's complement a binary frame would
	// carry it in.
	M uint64
	N int
	// Prefix is the workload-only fingerprint state: m, n and every row
	// truncated to m, in the order and through the kernel that the engine
	// folds a decoded instance (engine.WorkloadFingerprintDAG without
	// edges), so the decoded request hashes to the same state.
	Prefix fphash.Hash
	// Wide reports a row wider than M: the decoder validates such a row in
	// full, then truncates it, so the row's last words are in no
	// fingerprint.
	Wide bool
	// Graph reports a precedence graph: a version-2 section with its
	// presence byte set, or a "graph" key.
	Graph bool

	// Options reports an options block; the fields after it are its values,
	// zero without one. Portfolio counts the portfolio's names, and Trace is
	// JSON only: the binary layout does not carry it.
	Options     bool
	Solver      []byte
	Portfolio   int
	Eps         float64
	Compact     bool
	Parallelism int64
	TimeoutMS   int64
	Lineage     []byte
	Trace       bool

	// routeKey is Prefix with the graph folded in, RouteKey's value.
	routeKey uint64
	// words holds the rows: task i's row is words[tasks[i].lo:tasks[i].hi].
	words []byte
	// Scratch, kept across walks by the pool: the tasks, the graph's lists
	// (list i ends at lists[i].end in edges) and the successor lists Decode
	// lays over edges, the portfolio's names and the JSON walk's words.
	tasks     []taskWindow
	lists     []succList
	edges     []int
	succ      [][]int
	portfolio [][]byte
	slab      []byte
	// portfolioKey reports a portfolio that decodes non-nil: a binary one
	// with names, or a "portfolio" key, even an empty one, as in
	// encoding/json.
	portfolioKey bool
}

// taskWindow is one task of a walked frame: its name, a window of the body,
// and its row, words[lo:hi].
type taskWindow struct {
	name   []byte
	lo, hi int
}

// succList is one successor list of a walked graph. A null list decodes nil
// and an empty one empty; the binary walk marks its empty lists null, as
// the binary decoder has always decoded them.
type succList struct {
	end  int
	null bool
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// maxPooledWords drops a frame whose scratch grew past this many words
// from the pool, so one giant body does not pin memory for the process
// lifetime.
const maxPooledWords = 1 << 16

// Release hands the frame back to the pool, keeping nothing of the body.
func (f *Frame) Release() {
	clear(f.tasks)
	clear(f.portfolio)
	*f = Frame{
		tasks: f.tasks[:0], lists: f.lists[:0], edges: f.edges[:0], succ: f.succ[:0],
		portfolio: f.portfolio[:0], slab: f.slab[:0],
	}
	if cap(f.slab)/8+cap(f.tasks)+cap(f.lists)+cap(f.edges)+3*cap(f.succ) <= maxPooledWords {
		framePool.Put(f)
	}
}

// ReadFrame walks a binary /v1/schedule request and checks its framing:
// header, truncation, oversized length prefixes, trailing bytes. Everything
// else — the profiles, m and n, which Decode's constructors check, the
// options, and the graph's meaning — it leaves to its callers. The frame's
// words are data itself.
func ReadFrame(data []byte) (*Frame, error) {
	f := framePool.Get().(*Frame)
	r := &reader{b: data}
	r.header(KindScheduleRequest)
	f.Name = r.view()
	f.M = r.uvarint()
	n := r.count(2) // a task is at least a name prefix + a count
	// A binary frame states m and n before its rows, so the walk folds each
	// row as it reaches it, and the hash overlaps the parse.
	f.words = data
	h := foldStart(f.M, n)
	for i := 0; i < n && r.err == nil; i++ {
		t := taskWindow{name: r.view()}
		// count(8) has checked that the whole row is present.
		width := r.count(8)
		t.lo = r.off
		r.off += 8 * width
		t.hi = r.off
		f.tasks = append(f.tasks, t)
		f.foldRow(&h, t)
	}
	if r.ver >= 2 && r.u8() != 0 {
		f.Graph = true
		nLists := r.count(1)
		for i := 0; i < nLists && r.err == nil; i++ {
			nEdges := r.count(1)
			for j := 0; j < nEdges && r.err == nil; j++ {
				f.edges = append(f.edges, int(r.uvarint()))
			}
			f.lists = append(f.lists, succList{end: len(f.edges), null: nEdges == 0})
		}
	}
	if r.u8() != 0 {
		f.Options = true
		f.Solver = r.view()
		f.Portfolio = r.count(1)
		for i := 0; i < f.Portfolio && r.err == nil; i++ {
			f.portfolio = append(f.portfolio, r.view())
		}
		f.portfolioKey = f.Portfolio > 0
		f.Eps = r.f64()
		f.Compact = r.u8()&1 != 0
		f.Parallelism = r.varint()
		f.TimeoutMS = r.varint()
		f.Lineage = r.view()
	}
	if err := r.done(); err != nil {
		f.Release()
		return nil, err
	}
	f.seal(h)
	return f, nil
}

// The workload fold both walks share: foldStart(m, n), then foldRow for
// every task in order — m, n and every row truncated to m, the words and
// the order in which the engine folds a decoded instance — then seal,
// which folds a present graph as engine.WorkloadFingerprintDAG hashes one:
// the "edges" marker, the list count, then each list's length and indices.
// ReadFrame folds as it walks; the JSON walk folds after, since a JSON
// body may state m after its tasks.
func foldStart(m uint64, n int) fphash.Hash {
	h := fphash.New()
	h.Word(m)
	h.Word(uint64(n))
	return h
}

func (f *Frame) foldRow(h *fphash.Hash, t taskWindow) {
	row := f.words[t.lo:t.hi]
	if f.M > 0 && uint64(len(row)/8) > f.M {
		row, f.Wide = row[:8*int(f.M)], true
	}
	h.Word(uint64(len(row) / 8))
	// The words are Float64bits little-endian, which is exactly what the
	// fingerprint hashes.
	for ; len(row) >= 8; row = row[8:] {
		h.Word(binary.LittleEndian.Uint64(row))
	}
}

// seal records N, the prefix and the route key.
func (f *Frame) seal(h fphash.Hash) {
	f.N = len(f.tasks)
	f.Prefix = h
	if f.Graph {
		h.String("edges")
		h.Word(uint64(len(f.lists)))
		lo := 0
		for _, l := range f.lists {
			h.Word(uint64(l.end - lo))
			for _, j := range f.edges[lo:l.end] {
				h.Word(uint64(j))
			}
			lo = l.end
		}
	}
	f.routeKey = h.Sum()
}

// RouteKey is the routing tier's key of the walked frame — the workload-only
// fingerprint with the graph folded in, wire.RouteKey's value for the same
// words in either codec, valid or not. A caller that keys from the frame
// itself reads the lineage key as the window f.Lineage, without copying it
// out.
func (f *Frame) RouteKey() uint64 { return f.routeKey }

// Decode builds the frame's instance and graph through the validating
// constructors both codecs share (task.NewOwned and instance.NewOwned are
// task.New and instance.New minus the copies), so both admit exactly the
// same workloads and reject invalid ones — the first invalid task, then the
// instance's shape — with the same typed errors. Every name is a window of
// one string and every time table of one slab; the instance shares no
// memory with the frame or the body. The successor lists are the frame's
// own: windows of its edges, valid until Release (DecodeScheduleRequest
// copies them out). The graph is built whatever the instance's verdict, nil
// without one; it is shape only: edge bounds and acyclicity stay with the
// caller (precedence.ValidateEdges), so both codecs reject a bad graph
// alike.
func (f *Frame) Decode() (*instance.Instance, [][]int, error) {
	graph := f.graph()
	size, words := len(f.Name), 0
	for _, t := range f.tasks {
		size += len(t.name)
		words += (t.hi - t.lo) / 8
	}
	var names strings.Builder
	names.Grow(size)
	names.Write(f.Name)
	name := names.String()
	slab := make([]float64, 0, words) // each task owns a capacity-capped window
	tasks := make([]task.Task, 0, f.N)
	for i, t := range f.tasks {
		lo, first := names.Len(), len(slab)
		names.Write(t.name)
		for row := f.words[t.lo:t.hi]; len(row) > 0; row = row[8:] {
			slab = append(slab, math.Float64frombits(binary.LittleEndian.Uint64(row)))
		}
		tk, err := task.NewOwned(names.String()[lo:], slab[first:len(slab):len(slab)])
		if err != nil {
			return nil, graph, fmt.Errorf("instance: task %d: %w", i, err)
		}
		tasks = append(tasks, tk)
	}
	in, err := instance.NewOwned(name, int(f.M), tasks)
	return in, graph, err
}

// graph lays the successor lists over the frame's edges, each capped at
// its own length so an append through one cannot reach its neighbour.
func (f *Frame) graph() [][]int {
	if !f.Graph {
		return nil
	}
	if f.succ == nil || cap(f.succ) < len(f.lists) {
		f.succ = make([][]int, len(f.lists))
	}
	graph := f.succ[:len(f.lists)]
	lo := 0
	for i, l := range f.lists {
		graph[i] = nil
		if !l.null {
			graph[i] = f.edges[lo:l.end:l.end]
		}
		lo = l.end
	}
	return graph
}

// copyGraph copies successor lists out into one edge slab; nil stays nil,
// and so does every nil list.
func copyGraph(graph [][]int) [][]int {
	if graph == nil {
		return nil
	}
	total := 0
	for _, ss := range graph {
		total += len(ss)
	}
	out := make([][]int, len(graph))
	edges := make([]int, 0, total)
	for i, ss := range graph {
		if ss != nil {
			lo := len(edges)
			edges = append(edges, ss...)
			out[i] = edges[lo:len(edges):len(edges)]
		}
	}
	return out
}

// PortfolioNames copies the names of the frame's portfolio out of it; nil
// without a portfolio.
func (f *Frame) PortfolioNames() []string {
	if !f.portfolioKey {
		return nil
	}
	names := make([]string, len(f.portfolio))
	for i, name := range f.portfolio {
		names[i] = string(name)
	}
	return names
}

// request copies the options out of the body: nil without an options
// block, as for a request without an "options" key.
func (f *Frame) request() *RequestOptions {
	if !f.Options {
		return nil
	}
	return &RequestOptions{
		Solver: string(f.Solver), Portfolio: f.PortfolioNames(), Eps: f.Eps, Compact: f.Compact,
		Parallelism: int(f.Parallelism), TimeoutMS: f.TimeoutMS, Lineage: string(f.Lineage), Trace: f.Trace,
	}
}

// SameWorkload reports whether the frame's rows are exactly the rows off
// and times describe — row i is times[off[i]:off[i+1]], the layout of
// instance.Compiled — width for width and bit for bit. Names are not
// compared, and neither are m and n, which a cache key already holds.
func (f *Frame) SameWorkload(off []int, times []float64) bool {
	if len(off) != f.N+1 {
		return false
	}
	for i, t := range f.tasks {
		want := times[off[i]:off[i+1]]
		row := f.words[t.lo:t.hi]
		if len(row) != 8*len(want) {
			return false
		}
		for _, x := range want {
			if binary.LittleEndian.Uint64(row) != math.Float64bits(x) {
				return false
			}
			row = row[8:]
		}
	}
	return true
}

// DecodeScheduleRequest decodes and validates a binary /v1/schedule
// request: ReadFrame, then the frame's Decode and its options. The graph is
// nil for version 1, for a version ≥ 2 request without one and for an
// invalid instance, and opts nil for a request without an options block,
// mirroring the JSON codec's absent "graph" and "options" keys. It never
// retains data.
func DecodeScheduleRequest(data []byte) (*instance.Instance, [][]int, *RequestOptions, error) {
	f, err := ReadFrame(data)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Release()
	in, graph, err := f.Decode()
	if err != nil {
		return nil, nil, nil, err
	}
	return in, copyGraph(graph), f.request(), nil
}

// RouteKey extracts the routing tier's consistent-hash key from a binary
// /v1/schedule request without building the instance: the workload-only
// fingerprint (internal/fphash over machine size, task count and every
// task's truncated time table, with a version ≥ 2 request's precedence
// graph folded in — the same words through the same kernel as
// engine.WorkloadFingerprintDAG folds from the decoded request, pinned by
// an equivalence test in internal/router and the differential fuzz target,
// so a DAG never routes as its independent projection)
// plus the lineage key, which overrides fingerprint routing when set.
// It is ReadFrame: the router peeks, it never decodes.
//
// Truncation mirrors instance.New: profiles wider than m hash only their
// first m entries, because that is what the backend will decode. Routing
// from a mismatched key would cost locality, never correctness — every
// shard answers every workload identically — but the equivalence test
// keeps this walk and the engine's hash in lockstep anyway.
func RouteKey(data []byte) (key uint64, lineage string, err error) {
	f, err := ReadFrame(data)
	if err != nil {
		return 0, "", err
	}
	key, lineage = f.RouteKey(), string(f.Lineage)
	f.Release()
	return key, lineage, nil
}
