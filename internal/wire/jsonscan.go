package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"malsched/internal/fphash"
	"malsched/internal/instance"
	"malsched/internal/task"
)

// The JSON codec decodes in two tiers. A hand-written scanner reads the
// canonical subset of the request schema — what every encoder in this module
// and any plain JSON library emits for it — in one walk (ReadJSONFrame):
// exact lower-case keys, each at most once, in any order; strings of
// unescaped printable ASCII; numbers in the strict JSON grammar, integers
// where the schema has integers; null only for a successor list, which
// decodes to a nil list. Anything else (unknown, duplicate or case-folded
// key, an escape or a non-ASCII byte, a null anywhere else, a number strconv
// refuses, a syntax error, bytes after the value) is not the scanner's: it
// reports so without a verdict and encoding/json decodes the body as it
// always has, so every exotic input keeps its answer and its error text. The
// two paths agree by bits on everything the scanner accepts
// (FuzzJSONScanMatchesEncodingJSON), and both build the instance through the
// validating constructors of the binary decoder.
//
// The walk fills pooled scratch — windows of the names, one slab of times
// with row offsets, m, the options and the graph — and converts each float
// in the pass that checks it (parseFloat: strconv's own exact steps, eight
// digits a step). It validates nothing of the workload: like ReadFrame, it
// folds the workload prefix and the route key from what it read, so the
// router keys a body without building an instance and the shard probes its
// memo with the same words. JSONFrame.Decode then builds the instance by
// exact-size copies and validates it, in instance.ReadJSON's order.

// JSONRequest is a decoded JSON /v1/schedule body. A body that decodes but
// carries an invalid instance has Instance nil and the reason in
// InstanceErr: callers answer an options error first, as the service always
// has, so the instance verdict is held rather than returned.
type JSONRequest struct {
	Instance    *instance.Instance
	InstanceErr error
	// Graph is nil without a "graph" key; as encoding/json decodes them,
	// empty lists are empty and null lists nil.
	Graph   [][]int
	Options *RequestOptions
}

// DecodePath names which of the JSON codec's two decoders read a body; both
// tiers count their decodes under it.
type DecodePath int

const (
	PathScan     DecodePath = iota // the request scanner
	PathFallback                   // encoding/json, for a body outside the scanner's subset
	NumDecodePaths
)

func (p DecodePath) String() string {
	if p == PathScan {
		return "scan"
	}
	return "fallback"
}

// ErrTrailingData reports bytes other than whitespace after a request's
// JSON value.
var ErrTrailingData = errors.New("trailing data after request body")

// DecodeJSONScheduleRequest decodes a JSON /v1/schedule body: the scanner
// when the body is in its subset, encoding/json otherwise; path reports
// which. err means the body itself is undecodable; an invalid instance is
// req.InstanceErr. body is never retained.
func DecodeJSONScheduleRequest(body []byte) (req JSONRequest, path DecodePath, err error) {
	if f, ok := ReadJSONFrame(body); ok {
		req = f.request()
		f.Release()
		return req, PathScan, nil
	}
	req, err = UnmarshalScheduleRequest(body)
	return req, PathFallback, err
}

// DecodeJSONInstance decodes one instance object
// ({"name","m","tasks":[{"name","times"}]}), fully validated, by the same
// two paths as DecodeJSONScheduleRequest. raw is never retained.
func DecodeJSONInstance(raw []byte) (in *instance.Instance, path DecodePath, err error) {
	if f, ok := readJSONFrame(raw, true); ok {
		in, _, err = f.Decode()
		f.Release()
		return in, PathScan, err
	}
	in, err = instance.ReadJSON(bytes.NewReader(raw))
	return in, PathFallback, err
}

// DecodeJSONBatchHead decodes what routes a JSON /v1/batch body — its
// options and the first of its instances, a batch being one admission unit —
// into the shape of a schedule request. An empty batch is an error.
func DecodeJSONBatchHead(body []byte) (req JSONRequest, path DecodePath, err error) {
	var env BatchRequest
	if err := UnmarshalBody(body, &env); err != nil {
		return JSONRequest{}, PathFallback, err
	}
	if len(env.Instances) == 0 {
		return JSONRequest{}, PathFallback, errors.New("batch has no instances")
	}
	req.Options = env.Options
	req.Instance, path, req.InstanceErr = DecodeJSONInstance(env.Instances[0])
	return req, path, nil
}

// UnmarshalBody decodes a request body with encoding/json into dst. Only
// whitespace may follow the value: anything else is ErrTrailingData, a
// closing bracket included (json.Decoder.More takes one for the end of an
// enclosing array).
func UnmarshalBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return ErrTrailingData
	}
	return nil
}

// UnmarshalScheduleRequest is the encoding/json path of
// DecodeJSONScheduleRequest, for a body ReadJSONFrame does not take.
func UnmarshalScheduleRequest(body []byte) (JSONRequest, error) {
	var env ScheduleRequest
	if err := UnmarshalBody(body, &env); err != nil {
		return JSONRequest{}, err
	}
	req := JSONRequest{Graph: env.Graph, Options: env.Options}
	req.Instance, req.InstanceErr = instance.ReadJSON(bytes.NewReader(env.Instance))
	return req, nil
}

// JSONFrame is a JSON /v1/schedule body walked once by ReadJSONFrame, the
// JSON twin of Frame: the workload's words in pooled scratch, its prefix
// folded from them, and windows of the body for every string. It builds no
// instance and validates none; Decode builds one from the words the walk
// read. A frame holds its body until Release, which hands the scratch back
// to the pool: neither may be used after.
type JSONFrame struct {
	scanner

	// Name is the instance name, a window of the body.
	Name []byte
	// M and N are the machine size and the task count the body states.
	M, N int
	// Prefix is the workload-only fingerprint state, folded exactly as
	// ReadFrame folds it: m, n and every row truncated to m.
	Prefix fphash.Hash
	// Wide reports a row wider than M, whose last words are in no
	// fingerprint.
	Wide bool
	// Graph reports a "graph" key; routeKey is Prefix with the graph folded
	// in, as ReadFrame folds a graph section.
	Graph    bool
	routeKey uint64
	FrameOptions

	// Scratch, kept across walks by the pool. Row i is
	// times[rows[i]:rows[i+1]] and task i's name names[i]; list i of the
	// graph ends at lists[i].end in edges.
	names     [][]byte
	times     []float64
	rows      []int
	lists     []jsonList
	edges     []int
	portfolio [][]byte
	// portfolioKey reports a "portfolio" key, which decodes non-nil even
	// when empty, as in encoding/json.
	portfolioKey bool
}

type jsonList struct {
	end  int
	null bool // a null list decodes nil, an empty one empty
}

var jsonFramePool = sync.Pool{New: func() any { return new(JSONFrame) }}

// maxPooledWords drops a frame whose scratch grew past this many words
// from the pool, so one giant body does not pin memory for the process
// lifetime.
const maxPooledWords = 1 << 16

// ReadJSONFrame walks a JSON /v1/schedule body once and reports whether it
// is in the scanner's subset. A false return is no verdict: the body goes to
// UnmarshalScheduleRequest. A walked body states its workload and options,
// but nothing about it is validated yet. The caller owns the frame until it
// calls Release, and body must not change before then.
func ReadJSONFrame(body []byte) (*JSONFrame, bool) {
	return readJSONFrame(body, false)
}

// readJSONFrame walks a whole request, or a bare instance object.
func readJSONFrame(body []byte, bareInstance bool) (*JSONFrame, bool) {
	f := jsonFramePool.Get().(*JSONFrame)
	f.b = body
	f.rows = append(f.rows, 0)
	if bareInstance {
		f.walkInstance()
	} else {
		f.walkRequest()
	}
	f.space()
	if f.bad || f.off != len(body) {
		f.Release()
		return nil, false
	}
	f.fold()
	return f, true
}

// Release hands the frame's scratch back to the pool, keeping nothing of
// the body.
func (f *JSONFrame) Release() {
	clear(f.names)
	clear(f.portfolio)
	*f = JSONFrame{
		names: f.names[:0], times: f.times[:0], rows: f.rows[:0],
		lists: f.lists[:0], edges: f.edges[:0], portfolio: f.portfolio[:0],
	}
	if cap(f.times)+cap(f.edges)+cap(f.rows)+cap(f.names) <= maxPooledWords {
		jsonFramePool.Put(f)
	}
}

// fold computes the workload prefix and the route key from the walked words.
func (f *JSONFrame) fold() {
	f.N = len(f.rows) - 1
	h := fphash.New()
	h.Word(uint64(f.M))
	h.Word(uint64(f.N))
	for i := range f.N {
		row := f.times[f.rows[i]:f.rows[i+1]]
		if f.M > 0 && len(row) > f.M {
			row, f.Wide = row[:f.M], true
		}
		h.Word(uint64(len(row)))
		for _, t := range row {
			h.Word(math.Float64bits(t))
		}
	}
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

// RouteKey is the routing tier's key of the frame: the workload-only
// fingerprint with the graph folded in, wire.RouteKey's value for the same
// workload as a binary frame, valid or not.
func (f *JSONFrame) RouteKey() uint64 { return f.routeKey }

// Decode builds the frame's instance and graph by exact-size copies — one
// string for every name, the task slice, one slab for the time tables, the
// instance — and validates the instance in instance.ReadJSON's order: the
// first invalid task, then the shape. The graph is built whatever the
// instance's verdict, nil without a "graph" key; like the binary decoder it
// is shape only. Nothing returned shares memory with the frame or the body.
func (f *JSONFrame) Decode() (*instance.Instance, [][]int, error) {
	graph := f.graph()
	total := len(f.Name)
	for _, name := range f.names {
		total += len(name)
	}
	var names strings.Builder
	names.Grow(total)
	names.Write(f.Name)
	name := names.String()
	slab := make([]float64, len(f.times))
	copy(slab, f.times)
	tasks := make([]task.Task, 0, f.N)
	for i := range f.N {
		lo := names.Len()
		names.Write(f.names[i])
		t, err := task.NewOwned(names.String()[lo:], slab[f.rows[i]:f.rows[i+1]:f.rows[i+1]])
		if err != nil {
			return nil, graph, fmt.Errorf("instance: task %d: %w", i, err)
		}
		tasks = append(tasks, t)
	}
	in, err := instance.NewOwned(name, f.M, tasks)
	return in, graph, err
}

// graph copies the successor lists out into one edge slab.
func (f *JSONFrame) graph() [][]int {
	if !f.Graph {
		return nil
	}
	graph := make([][]int, len(f.lists))
	edges := make([]int, len(f.edges))
	copy(edges, f.edges)
	lo := 0
	for i, l := range f.lists {
		if !l.null {
			graph[i] = edges[lo:l.end:l.end]
		}
		lo = l.end
	}
	return graph
}

// PortfolioNames copies the names of the frame's portfolio out of it; nil
// without a portfolio.
func (f *JSONFrame) PortfolioNames() []string {
	if !f.portfolioKey {
		return nil
	}
	names := make([]string, len(f.portfolio))
	for i, name := range f.portfolio {
		names[i] = string(name)
	}
	return names
}

// SameWorkload reports whether the frame's rows are exactly the rows off
// and times describe — row i is times[off[i]:off[i+1]], the layout of
// instance.Compiled — width for width and bit for bit, as Frame's does.
func (f *JSONFrame) SameWorkload(off []int, times []float64) bool {
	if len(off) != f.N+1 {
		return false
	}
	for i := range f.N {
		row := f.times[f.rows[i]:f.rows[i+1]]
		want := times[off[i]:off[i+1]]
		if len(row) != len(want) {
			return false
		}
		for p, t := range want {
			if math.Float64bits(row[p]) != math.Float64bits(t) {
				return false
			}
		}
	}
	return true
}

// request is the decoded request of DecodeJSONScheduleRequest.
func (f *JSONFrame) request() JSONRequest {
	req := JSONRequest{Options: f.FrameOptions.request(f.PortfolioNames())}
	req.Instance, req.Graph, req.InstanceErr = f.Decode()
	return req
}

// scanner holds the grammar of the JSON subset: one walk over b, the first
// failure sticky and every later read a no-op, so a walk checks once at the
// end.
type scanner struct {
	b   []byte
	off int
	bad bool
}

func (s *scanner) space() {
	for s.off < len(s.b) {
		switch s.b[s.off] {
		case ' ', '\t', '\r', '\n':
			s.off++
		default:
			return
		}
	}
}

// expect consumes c, after any whitespace.
func (s *scanner) expect(c byte) {
	s.space()
	if s.bad || s.off >= len(s.b) || s.b[s.off] != c {
		s.bad = true
		return
	}
	s.off++
}

// more steps to member i of the array or object that end closes — past the
// comma before it when i > 0 — and reports false once past end. A comma
// with no member behind it fails in the member's own read.
func (s *scanner) more(i int, end byte) bool {
	s.space()
	if s.bad || s.off >= len(s.b) {
		s.bad = true
		return false
	}
	switch c := s.b[s.off]; {
	case c == end:
		s.off++
		return false
	case i == 0:
		return true
	case c == ',':
		s.off++
		return true
	}
	s.bad = true
	return false
}

// str reads a string of unescaped printable ASCII as a window of the body.
func (s *scanner) str() []byte {
	s.expect('"')
	if s.bad {
		return nil
	}
	lo := s.off
	for i := lo; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.off = i + 1
			return s.b[lo:i]
		case c < 0x20 || c > 0x7e || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// key reads an object key and its colon. Callers switch on string(key),
// which does not allocate.
func (s *scanner) key() []byte {
	k := s.str()
	s.expect(':')
	return k
}

// once marks a key seen, failing on its second appearance: encoding/json
// lets the last one win, which is not worth reproducing.
func (s *scanner) once(seen *uint, bit uint) {
	if *seen&bit != 0 {
		s.bad = true
	}
	*seen |= bit
}

// digits steps over a run of decimal digits from b[i], eight a step while
// eight are left (eightDigits), and returns where the run ends.
func digits(b []byte, i int) int {
	for i+8 <= len(b) && eightDigits(binary.LittleEndian.Uint64(b[i:])) {
		i += 8
	}
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// number reads one number in the strict JSON grammar — no leading zeros,
// digits on both sides of a point, digits in an exponent — and reports
// whether it is an integer literal.
func (s *scanner) number() (lit []byte, integer bool) {
	s.space()
	b, lo := s.b, s.off
	i := lo
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case s.bad || i >= len(b):
		s.bad = true
		return nil, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.bad = true
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			s.bad = true
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.bad = true
			return nil, false
		}
		i = j
	}
	s.off = i
	return b[lo:i], integer
}

// float reads a number as encoding/json does, to strconv.ParseFloat's bits,
// converting it in the pass that checks it (parseFloat). A literal strconv
// refuses (a range error) hands the body over.
func (s *scanner) float() float64 {
	s.space()
	if s.bad {
		return 0
	}
	v, n, ok := parseFloat(s.b[s.off:])
	if !ok {
		s.bad = true
		return 0
	}
	s.off += n
	return v
}

// maxIntDigits keeps integer's accumulator inside an int64 without an
// overflow check; longer literals go to encoding/json.
const maxIntDigits = 18

// integer reads an integer literal. A fraction or an exponent, which
// encoding/json refuses for an integer field, fails.
func (s *scanner) integer() int {
	lit, integer := s.number()
	if s.bad {
		return 0
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if !integer || len(lit) > maxIntDigits {
		s.bad = true
		return 0
	}
	v := 0
	for _, c := range lit {
		v = v*10 + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v
}

// null consumes a null literal, after any whitespace, and reports whether
// there was one. Anything else is left for the caller's own read.
func (s *scanner) null() bool {
	s.space()
	if s.bad || !bytes.HasPrefix(s.b[s.off:], []byte("null")) {
		return false
	}
	s.off += len("null")
	return true
}

func (s *scanner) boolean() bool {
	s.space()
	rest := s.b[s.off:]
	switch {
	case s.bad:
	case bytes.HasPrefix(rest, []byte("true")):
		s.off += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.off += len("false")
	default:
		s.bad = true
	}
	return false
}

// walkRequest walks {"instance":…,"graph":…,"options":…}.
func (f *JSONFrame) walkRequest() {
	f.expect('{')
	var seen uint
	for i := 0; f.more(i, '}'); i++ {
		switch string(f.key()) {
		case "instance":
			f.once(&seen, 1)
			f.walkInstance()
		case "graph":
			f.once(&seen, 2)
			f.walkGraph()
		case "options":
			f.once(&seen, 4)
			f.walkOptions()
		default:
			f.bad = true
		}
	}
	if seen&1 == 0 {
		f.bad = true // no instance to build: encoding/json words that answer
	}
}

// walkInstance walks {"name":…,"m":…,"tasks":[…]}; an absent key is its
// zero value, as in encoding/json.
func (f *JSONFrame) walkInstance() {
	f.expect('{')
	var seen uint
	for i := 0; f.more(i, '}'); i++ {
		switch string(f.key()) {
		case "name":
			f.once(&seen, 1)
			f.Name = f.str()
		case "m":
			f.once(&seen, 2)
			f.M = f.integer()
		case "tasks":
			f.once(&seen, 4)
			f.expect('[')
			for j := 0; f.more(j, ']'); j++ {
				f.walkTask()
			}
		default:
			f.bad = true
		}
	}
}

// walkTask walks {"name":…,"times":[…]} into a name window and a row of
// the slab.
func (f *JSONFrame) walkTask() {
	f.expect('{')
	var seen uint
	var name []byte
	for j := 0; f.more(j, '}'); j++ {
		switch string(f.key()) {
		case "name":
			f.once(&seen, 1)
			name = f.str()
		case "times":
			f.once(&seen, 2)
			f.expect('[')
			for i := 0; f.more(i, ']'); i++ {
				f.times = append(f.times, f.float())
			}
		default:
			f.bad = true
		}
	}
	f.names = append(f.names, name)
	f.rows = append(f.rows, len(f.times))
}

// walkGraph walks the successor lists [[…],…] into the edge slab. A null
// list decodes nil, as encoding/json decodes it (a Go client marshals a nil
// list so: every leaf of a chain or an out-tree); an empty one empty.
func (f *JSONFrame) walkGraph() {
	f.Graph = true
	f.expect('[')
	for i := 0; f.more(i, ']'); i++ {
		null := f.null()
		if !null {
			f.expect('[')
			for j := 0; f.more(j, ']'); j++ {
				f.edges = append(f.edges, f.integer())
			}
		}
		f.lists = append(f.lists, jsonList{end: len(f.edges), null: null})
	}
}

// walkOptions walks the RequestOptions object.
func (f *JSONFrame) walkOptions() {
	f.Options = true
	f.expect('{')
	var seen uint
	for i := 0; f.more(i, '}'); i++ {
		switch string(f.key()) {
		case "solver":
			f.once(&seen, 1<<0)
			f.Solver = f.str()
		case "portfolio":
			f.once(&seen, 1<<1)
			f.portfolioKey = true
			f.expect('[')
			for j := 0; f.more(j, ']'); j++ {
				f.portfolio = append(f.portfolio, f.str())
			}
			f.Portfolio = len(f.portfolio)
		case "eps":
			f.once(&seen, 1<<2)
			f.Eps = f.float()
		case "compact":
			f.once(&seen, 1<<3)
			f.Compact = f.boolean()
		case "parallelism":
			f.once(&seen, 1<<4)
			f.Parallelism = int64(f.integer())
		case "timeout_ms":
			f.once(&seen, 1<<5)
			f.TimeoutMS = int64(f.integer())
		case "lineage":
			f.once(&seen, 1<<6)
			f.Lineage = f.str()
		case "trace":
			f.once(&seen, 1<<7)
			f.Trace = f.boolean()
		default:
			f.bad = true
		}
	}
}
