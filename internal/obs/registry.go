package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Registry holds metric families and renders them in Prometheus text
// exposition format. Get-or-create accessors are safe for concurrent use
// and return the same instrument for the same (name, labels) pair; a hot
// path holds its handles, or resolves them through a Vec, because a lookup
// here renders the label key. The zero value is not ready; use NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series map[string]*series
	order  []string // label-key insertion order, for stable exposition
}

type series struct {
	labels  string // rendered {k="v",...}, or ""
	counter *Counter
	fn      func() float64
	hist    *Histogram
}

// labelKey renders the label pairs in caller order. Callers must pass a
// fixed order per family (the accessors below are always called with
// literal label names), which keeps keys canonical without sorting on the
// hot path.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be name/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f != nil {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.families[name]; f != nil {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
	r.families[name] = f
	return f
}

func (f *family) get(labels []string) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch f.kind {
		case kindCounter:
			s.counter = &Counter{}
		case kindHistogram:
			s.hist = NewHistogram()
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
// Labels are alternating name/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.family(name, help, kindCounter).get(labels).counter
}

// Histogram returns the histogram for (name, labels), creating it on first
// use.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.family(name, help, kindHistogram).get(labels).hist
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time: a view over counts kept elsewhere (the engine's own
// counters) or a sum of this registry's counters.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.family(name, help, kindCounter).get(labels).fn = fn
}

// Vec is a typed get-or-create cache of instruments keyed on a comparable
// label combination: Get builds a key's value with mk on first use and
// returns the same value after. A hit is one read-locked map lookup and
// allocates nothing, so a hot path keeps its labels in a struct key instead
// of rendering a label string per request.
type Vec[K comparable, V any] struct {
	mk func(K) V
	mu sync.RWMutex
	m  map[K]V
}

// NewVec returns an empty Vec whose values mk builds.
func NewVec[K comparable, V any](mk func(K) V) *Vec[K, V] {
	return &Vec[K, V]{mk: mk, m: make(map[K]V)}
}

// Get returns k's value, building it on the first call for k.
func (v *Vec[K, V]) Get(k K) V {
	v.mu.RLock()
	x, ok := v.m[k]
	v.mu.RUnlock()
	if ok {
		return x
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if x, ok = v.m[k]; !ok {
		x = v.mk(k)
		v.m[k] = x
	}
	return x
}

// GaugeFunc registers a gauge series evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.family(name, help, kindGauge).get(labels).fn = fn
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series in first-use order,
// histograms as cumulative non-empty buckets plus +Inf, _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		r.mu.RLock()
		f := r.families[name]
		r.mu.RUnlock()
		f.mu.Lock()
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, key := range f.order {
			s := f.series[key]
			switch {
			case s.hist != nil:
				writeHistogram(&b, f.name, s)
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			default:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			}
		}
		f.mu.Unlock()
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram renders one histogram series: cumulative counts for every
// non-empty bucket (le = the bucket's inclusive upper bound in µs), then
// +Inf, _sum and _count. Sparse buckets keep the output proportional to
// the latency spread, not the 252-bucket layout.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	cum := int64(0)
	for i := 0; i < NumBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(s.labels, strconv.FormatInt(BucketUpper(i), 10)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, bucketLabels(s.labels, "+Inf"), h.Count())
	fmt.Fprintf(b, "%s_sum%s %d\n", name, s.labels, h.SumUS())
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, h.Count())
}

// bucketLabels splices le="..." into a rendered label set.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// Handler serves the registry as GET /metricsz-style Prometheus text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		_ = r.WriteText(w)
	})
}
