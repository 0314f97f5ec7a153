package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"malsched/internal/instance"
	"malsched/internal/task"
)

// The JSON codec decodes in two tiers. A hand-written scanner reads the
// canonical subset of the request schema — what every encoder in this module
// and any plain JSON library emits for it — straight into the slabs the
// binary decoder builds: exact lower-case keys, each at most once, in any
// order; strings of unescaped printable ASCII; numbers in the strict JSON
// grammar, integers where the schema has integers; null only for a successor
// list, which decodes to a nil list. Anything else (unknown, duplicate or
// case-folded key, an escape or a non-ASCII byte, a null anywhere else, a
// number strconv refuses, a syntax error, bytes after the value) is not the
// scanner's: it reports so without a verdict and encoding/json decodes the
// body as it always has, so every exotic input keeps its answer and its
// error text. The two paths agree by bits on everything the scanner accepts
// (FuzzJSONScanMatchesEncodingJSON), and both build the instance through the
// validating constructors of the binary decoder. A float is read once: the
// filling walk converts each literal in the pass that checks it (parseFloat,
// strconv's own exact steps), and strconv.ParseFloat, which still decides
// every refusal, runs only on a literal with a non-zero digit past its 19th
// significant one or one that Eisel–Lemire declines.

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
	if req, ok := scanScheduleRequest(body); ok {
		return req, PathScan, nil
	}
	req, err = unmarshalScheduleRequest(body)
	return req, PathFallback, err
}

// DecodeJSONInstance decodes one instance object
// ({"name","m","tasks":[{"name","times"}]}), fully validated, by the same
// two paths as DecodeJSONScheduleRequest. raw is never retained.
func DecodeJSONInstance(raw []byte) (in *instance.Instance, path DecodePath, err error) {
	if in, ok, err := scanInstance(raw); ok {
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

// unmarshalScheduleRequest is the encoding/json path of
// DecodeJSONScheduleRequest.
func unmarshalScheduleRequest(body []byte) (JSONRequest, error) {
	var env ScheduleRequest
	if err := UnmarshalBody(body, &env); err != nil {
		return JSONRequest{}, err
	}
	req := JSONRequest{Graph: env.Graph, Options: env.Options}
	req.Instance, req.InstanceErr = instance.ReadJSON(bytes.NewReader(env.Instance))
	return req, nil
}

// scanScheduleRequest is the scanner path; ok false means the body is not
// in the scanner's subset and nothing else.
func scanScheduleRequest(body []byte) (req JSONRequest, ok bool) {
	s := scanner{b: body}
	if !s.walks(false) {
		return JSONRequest{}, false
	}
	req = JSONRequest{Graph: s.graph, Options: s.opts}
	req.Instance, req.InstanceErr = s.built()
	return req, true
}

// scanInstance is the scanner path of one instance object.
func scanInstance(raw []byte) (in *instance.Instance, ok bool, err error) {
	s := scanner{b: raw}
	if !s.walks(true) {
		return nil, false, nil
	}
	in, err = s.built()
	return in, true, err
}

// scanner walks a body twice through the same code. The counting walk
// (fill false) checks the grammar and sizes what the filling walk then
// allocates once: one string for every name, one slab for every time table,
// the task slice, the edge slab. A body outside the subset fails the
// counting walk and costs no allocation; the filling walk can only fail on
// a number strconv refuses. The first failure sticks and every later read
// is a no-op, so the walks check once at the end.
type scanner struct {
	b    []byte
	off  int
	bad  bool
	fill bool

	// Sizes from the counting walk.
	nameBytes, nTasks, nTimes, nLists, nEdges int

	names strings.Builder
	tasks []task.Task
	slab  []float64
	edges []int

	name    string
	m       int
	taskErr error // first invalid task, held until the body has scanned
	graph   [][]int
	opts    *RequestOptions
}

// walks runs the counting walk and then the filling walk over a whole
// request, or over a bare instance object, and reports whether the body is
// the scanner's.
func (s *scanner) walks(bareInstance bool) bool {
	if !s.walk(bareInstance) {
		return false
	}
	s.fill, s.off = true, 0
	s.names.Grow(s.nameBytes)
	s.tasks = make([]task.Task, 0, s.nTasks)
	s.slab = make([]float64, 0, s.nTimes)
	return s.walk(bareInstance)
}

// walk is one walk: the value, then nothing but whitespace to the end.
func (s *scanner) walk(bareInstance bool) bool {
	if bareInstance {
		s.instance()
	} else {
		s.request()
	}
	s.space()
	return !s.bad && s.off == len(s.b)
}

// built is the instance of a walked body, validated in the order
// instance.ReadJSON validates: the first bad task, then the shape.
func (s *scanner) built() (*instance.Instance, error) {
	if s.taskErr != nil {
		return nil, s.taskErr
	}
	return instance.NewOwned(s.name, s.m, s.tasks)
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

// text reads a string the decoded request keeps on its own.
func (s *scanner) text() string {
	v := s.str()
	if !s.fill {
		return ""
	}
	return string(v)
}

// label reads an instance or task name into the one string all names share.
func (s *scanner) label() string {
	v := s.str()
	if !s.fill {
		s.nameBytes += len(v)
		return ""
	}
	lo := s.names.Len()
	s.names.Write(v)
	return s.names.String()[lo:]
}

func digits(b []byte, i int) int {
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

// float reads a number as encoding/json does, to strconv.ParseFloat's bits.
// The counting walk only checks the literal; the filling walk converts it in
// the pass that reads it (parseFloat), and a literal strconv refuses (a range
// error) hands the body over.
func (s *scanner) float() float64 {
	if !s.fill {
		s.number()
		return 0
	}
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

// request walks {"instance":…,"graph":…,"options":…}.
func (s *scanner) request() {
	s.expect('{')
	var seen uint
	for i := 0; s.more(i, '}'); i++ {
		switch string(s.key()) {
		case "instance":
			s.once(&seen, 1)
			s.instance()
		case "graph":
			s.once(&seen, 2)
			s.graphLists()
		case "options":
			s.once(&seen, 4)
			s.options()
		default:
			s.bad = true
		}
	}
	if seen&1 == 0 {
		s.bad = true // no instance to build: encoding/json words that answer
	}
}

// instance walks {"name":…,"m":…,"tasks":[…]}; an absent key is its zero
// value, as in encoding/json.
func (s *scanner) instance() {
	s.expect('{')
	var seen uint
	for i := 0; s.more(i, '}'); i++ {
		switch string(s.key()) {
		case "name":
			s.once(&seen, 1)
			s.name = s.label()
		case "m":
			s.once(&seen, 2)
			s.m = s.integer()
		case "tasks":
			s.once(&seen, 4)
			s.expect('[')
			for j := 0; s.more(j, ']'); j++ {
				s.task(j)
			}
		default:
			s.bad = true
		}
	}
}

// task walks {"name":…,"times":[…]} and validates it through
// task.NewOwned. The first invalid task is remembered, not returned: the
// rest of the body still decides whether the scanner answers at all.
func (s *scanner) task(i int) {
	s.expect('{')
	var seen uint
	var name string
	var times []float64
	for j := 0; s.more(j, '}'); j++ {
		switch string(s.key()) {
		case "name":
			s.once(&seen, 1)
			name = s.label()
		case "times":
			s.once(&seen, 2)
			times = s.times()
		default:
			s.bad = true
		}
	}
	if !s.fill {
		s.nTasks++
		return
	}
	if s.bad || s.taskErr != nil {
		return
	}
	t, err := task.NewOwned(name, times)
	if err != nil {
		s.taskErr = fmt.Errorf("instance: task %d: %w", i, err)
		return
	}
	s.tasks = append(s.tasks, t)
}

// times walks one time table into a capacity-capped window of the slab.
func (s *scanner) times() []float64 {
	s.expect('[')
	lo := len(s.slab)
	for i := 0; s.more(i, ']'); i++ {
		v := s.float()
		if s.fill {
			s.slab = append(s.slab, v)
		} else {
			s.nTimes++
		}
	}
	return s.slab[lo:len(s.slab):len(s.slab)]
}

// graphLists walks the successor lists [[…],…] into windows of one slab.
// A null list is nil, as encoding/json decodes it (a Go client marshals a
// nil list so: every leaf of a chain or an out-tree); an empty one is an
// empty window.
func (s *scanner) graphLists() {
	s.expect('[')
	if s.fill {
		s.graph = make([][]int, 0, s.nLists)
		s.edges = make([]int, 0, s.nEdges)
	}
	for i := 0; s.more(i, ']'); i++ {
		var list []int
		if !s.null() {
			s.expect('[')
			lo := len(s.edges)
			for j := 0; s.more(j, ']'); j++ {
				v := s.integer()
				if s.fill {
					s.edges = append(s.edges, v)
				} else {
					s.nEdges++
				}
			}
			list = s.edges[lo:len(s.edges):len(s.edges)]
		}
		if s.fill {
			s.graph = append(s.graph, list)
		} else {
			s.nLists++
		}
	}
}

// options walks the RequestOptions object.
func (s *scanner) options() {
	s.expect('{')
	var seen uint
	var o RequestOptions
	for i := 0; s.more(i, '}'); i++ {
		switch string(s.key()) {
		case "solver":
			s.once(&seen, 1<<0)
			o.Solver = s.text()
		case "portfolio":
			s.once(&seen, 1<<1)
			s.expect('[')
			o.Portfolio = []string{}
			for j := 0; s.more(j, ']'); j++ {
				if name := s.text(); s.fill {
					o.Portfolio = append(o.Portfolio, name)
				}
			}
		case "eps":
			s.once(&seen, 1<<2)
			o.Eps = s.float()
		case "compact":
			s.once(&seen, 1<<3)
			o.Compact = s.boolean()
		case "parallelism":
			s.once(&seen, 1<<4)
			o.Parallelism = s.integer()
		case "timeout_ms":
			s.once(&seen, 1<<5)
			o.TimeoutMS = int64(s.integer())
		case "lineage":
			s.once(&seen, 1<<6)
			o.Lineage = s.text()
		case "trace":
			s.once(&seen, 1<<7)
			o.Trace = s.boolean()
		default:
			s.bad = true
		}
	}
	if s.fill {
		kept := o // the counting walk's o stays on the stack
		s.opts = &kept
	}
}
