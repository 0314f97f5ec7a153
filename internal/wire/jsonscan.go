package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"malsched/internal/instance"
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
// The walk fills a pooled Frame, the layout ReadFrame fills from a binary
// request — windows of the names, m, one slab of the times' words, the
// options and the graph — and converts each float in the pass that checks
// it (parseFloat: strconv's own exact steps, eight digits a step). It
// validates nothing of the workload: the frame folds the workload prefix
// and the route key from what it read, so the router keys a body without
// building an instance and the shard probes its memo with the same words.
// Frame.Decode then builds the instance and validates it, in
// instance.ReadJSON's order.

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

// DecodeJSONInstance decodes one instance object
// ({"name","m","tasks":[{"name","times"}]}), fully validated: the
// scanner's walk when the object is in its subset, encoding/json otherwise;
// path reports which. raw is never retained.
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

// UnmarshalScheduleRequest decodes a JSON /v1/schedule body with
// encoding/json: the path for a body ReadJSONFrame does not take. err means
// the body itself is undecodable; an invalid instance is req.InstanceErr.
func UnmarshalScheduleRequest(body []byte) (JSONRequest, error) {
	var env ScheduleRequest
	if err := UnmarshalBody(body, &env); err != nil {
		return JSONRequest{}, err
	}
	req := JSONRequest{Graph: env.Graph, Options: env.Options}
	req.Instance, req.InstanceErr = instance.ReadJSON(bytes.NewReader(env.Instance))
	return req, nil
}

// ReadJSONFrame walks a JSON /v1/schedule body once into a Frame and
// reports whether the body is in the scanner's subset. A false return is no
// verdict: the body goes to UnmarshalScheduleRequest. A walked body states
// its workload and options, but nothing about it is validated yet. The
// caller owns the frame until it calls Release, and body must not change
// before then.
func ReadJSONFrame(body []byte) (*Frame, bool) {
	return readJSONFrame(body, false)
}

// readJSONFrame walks a whole request, or a bare instance object.
func readJSONFrame(body []byte, bareInstance bool) (*Frame, bool) {
	w := jsonWalk{scanner{b: body}, framePool.Get().(*Frame)}
	if bareInstance {
		w.walkInstance()
	} else {
		w.walkRequest()
	}
	w.space()
	if w.bad || w.off != len(body) {
		w.Release()
		return nil, false
	}
	w.words = w.slab
	h := foldStart(w.M, len(w.tasks))
	for _, t := range w.tasks {
		w.foldRow(&h, t)
	}
	w.seal(h)
	return w.Frame, true
}

// jsonWalk is the JSON walk: the scanner over the body, filling a frame.
type jsonWalk struct {
	scanner
	*Frame
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
func (w *jsonWalk) walkRequest() {
	w.expect('{')
	var seen uint
	for i := 0; w.more(i, '}'); i++ {
		switch string(w.key()) {
		case "instance":
			w.once(&seen, 1)
			w.walkInstance()
		case "graph":
			w.once(&seen, 2)
			w.walkGraph()
		case "options":
			w.once(&seen, 4)
			w.walkOptions()
		default:
			w.bad = true
		}
	}
	if seen&1 == 0 {
		w.bad = true // no instance to build: encoding/json words that answer
	}
}

// walkInstance walks {"name":…,"m":…,"tasks":[…]}; an absent key is its
// zero value, as in encoding/json.
func (w *jsonWalk) walkInstance() {
	w.expect('{')
	var seen uint
	for i := 0; w.more(i, '}'); i++ {
		switch string(w.key()) {
		case "name":
			w.once(&seen, 1)
			w.Name = w.str()
		case "m":
			w.once(&seen, 2)
			w.M = uint64(w.integer())
		case "tasks":
			w.once(&seen, 4)
			w.expect('[')
			for j := 0; w.more(j, ']'); j++ {
				w.walkTask()
			}
		default:
			w.bad = true
		}
	}
}

// walkTask walks {"name":…,"times":[…]} into a name window and a row of
// the slab, each time as its Float64bits, little-endian.
func (w *jsonWalk) walkTask() {
	w.expect('{')
	var seen uint
	t := taskWindow{lo: len(w.slab)}
	for j := 0; w.more(j, '}'); j++ {
		switch string(w.key()) {
		case "name":
			w.once(&seen, 1)
			t.name = w.str()
		case "times":
			w.once(&seen, 2)
			w.expect('[')
			for i := 0; w.more(i, ']'); i++ {
				w.slab = binary.LittleEndian.AppendUint64(w.slab, math.Float64bits(w.float()))
			}
		default:
			w.bad = true
		}
	}
	t.hi = len(w.slab)
	w.tasks = append(w.tasks, t)
}

// walkGraph walks the successor lists [[…],…] into the edge slab. A null
// list decodes nil, as encoding/json decodes it (a Go client marshals a nil
// list so: every leaf of a chain or an out-tree); an empty one empty.
func (w *jsonWalk) walkGraph() {
	w.Graph = true
	w.expect('[')
	for i := 0; w.more(i, ']'); i++ {
		null := w.null()
		if !null {
			w.expect('[')
			for j := 0; w.more(j, ']'); j++ {
				w.edges = append(w.edges, w.integer())
			}
		}
		w.lists = append(w.lists, succList{end: len(w.edges), null: null})
	}
}

// walkOptions walks the RequestOptions object.
func (w *jsonWalk) walkOptions() {
	w.Options = true
	w.expect('{')
	var seen uint
	for i := 0; w.more(i, '}'); i++ {
		switch string(w.key()) {
		case "solver":
			w.once(&seen, 1<<0)
			w.Solver = w.str()
		case "portfolio":
			w.once(&seen, 1<<1)
			w.portfolioKey = true
			w.expect('[')
			for j := 0; w.more(j, ']'); j++ {
				w.portfolio = append(w.portfolio, w.str())
			}
			w.Portfolio = len(w.portfolio)
		case "eps":
			w.once(&seen, 1<<2)
			w.Eps = w.float()
		case "compact":
			w.once(&seen, 1<<3)
			w.Compact = w.boolean()
		case "parallelism":
			w.once(&seen, 1<<4)
			w.Parallelism = int64(w.integer())
		case "timeout_ms":
			w.once(&seen, 1<<5)
			w.TimeoutMS = int64(w.integer())
		case "lineage":
			w.once(&seen, 1<<6)
			w.Lineage = w.str()
		case "trace":
			w.once(&seen, 1<<7)
			w.Trace = w.boolean()
		default:
			w.bad = true
		}
	}
}
