package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// A percentile is reported only with ten samples beyond it: p99 needs a
// thousand samples, p50 twenty.
func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {20000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// rule the contract measures spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 30, 20}, [3]float64{10, 20, 30}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// universeOf generates a whole universe without a stack.
func universeOf(t *testing.T, w *workload, seed int64) *universe {
	t.Helper()
	u := newUniverse(w, seed, quickScale)
	for cl := 0; cl < clients; cl++ {
		if err := u.generate(cl, nil); err != nil {
			t.Fatal(err)
		}
	}
	return u
}

// walk returns the first n item indices of a client's plan.
func walk(p *clientPlan, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

func TestGeneratorDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, other := universeOf(t, w, 7), universeOf(t, w, 7), universeOf(t, w, 8)
		if len(a.items) == 0 || len(a.items) != len(b.items) {
			t.Fatalf("%s: universes of %d and %d items", w.name, len(a.items), len(b.items))
		}
		same := 0
		for k := range a.items {
			if len(a.items[k].body) == 0 {
				t.Fatalf("%s: item %d was never generated", w.name, k)
			}
			if !bytes.Equal(a.items[k].body, b.items[k].body) || a.items[k].class != b.items[k].class {
				t.Fatalf("%s: item %d differs between two generations of seed 7", w.name, k)
			}
			if bytes.Equal(a.items[k].body, other.items[k].body) {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of %d bodies are the same under seeds 7 and 8", w.name, same, len(a.items))
		}
		for cl := 0; cl < clients; cl++ {
			if !reflect.DeepEqual(a.plans[cl].pattern, b.plans[cl].pattern) {
				t.Errorf("%s: client %d class schedule differs between two generations", w.name, cl)
			}
			if !reflect.DeepEqual(walk(a.plans[cl], 500), walk(b.plans[cl], 500)) {
				t.Errorf("%s: client %d request sequence differs between two generations", w.name, cl)
			}
		}
		if w.name == "serve-mix" && reflect.DeepEqual(a.plans[0].pattern, other.plans[0].pattern) {
			t.Errorf("serve-mix: class schedule is the same under seeds 7 and 8")
		}
	}
}

// The mix holds each class in its exact share, and a plan's class counts
// are what its pattern says.
func TestMixSchedule(t *testing.T) {
	w := workloadByName("serve-mix")
	p := newUniverse(w, 3, quickScale).plans[0]
	got := p.classCounts(mixPatternLength)
	for c, weight := range w.weights {
		if want := weight * mixPatternLength / 20; got[c] != want {
			t.Errorf("class %s: %d per pattern, want %d", classNames[c], got[c], want)
		}
	}
	var counted [numClasses]int
	for _, c := range p.pattern[:777] {
		counted[c]++
	}
	for c := range counted {
		counted[c] += got[c]
	}
	if got := p.classCounts(mixPatternLength + 777); got != counted {
		t.Errorf("classCounts(%d) = %v, want %v", mixPatternLength+777, got, counted)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the allowed charset", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the allowed charset", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json and the code must declare the same workloads and metrics.
func TestManifestMatchesCode(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %v, want %v", m.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %v, want %v", m.Paths, want)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8 / 16 / 128", n, len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []manifestMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("manifest has %d %s metrics, code %d", len(got), kind, len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d: manifest %+v, code %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s metric %s: bound must be declared, equal in both places and in (0, 0.25]", kind, w.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s carries a bound", kind, w.Name)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
	setup := m.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower better; got %+v", setup)
	}
	for _, e := range endToEnd {
		if e.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
}

// Every workload runs at test size, untraced and traced, and every
// declared metric comes out present and finite; the driver line carries
// exactly the declared metrics; the span file has the promised shape.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []string{"0", "1"} {
			var stdout bytes.Buffer
			args := []string{"-quick", "-requests", "300", "-workload", w.name, "-seed", "5", "-trace", trace, "-out", out}
			if err := realMain(args, &stdout); err != nil {
				t.Fatalf("%s trace %s: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var obj struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
				t.Fatalf("%s trace %s: last line is not the result object: %v", w.name, trace, err)
			}
			if !obj.Correct || obj.Failed != 0 || obj.Attempted < 150 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.name, trace, obj.Correct, obj.Attempted, obj.Failed)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(obj.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(obj.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := obj.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
					t.Errorf("%s trace %s: metric %s missing, non-finite or in the wrong unit: %+v", w.name, trace, m.Name, got)
				}
				if trace == "0" && ok && got.Value != nil && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, *got.Value)
				}
			}
		}
		spans := readSpans(t, filepath.Join(out, "trace-"+w.name+".jsonl"))
		if len(spans) < quickScale.sample {
			t.Errorf("%s: span file holds %d spans for %d requests", w.name, len(spans), quickScale.sample)
		}
		if err := checkSpans(spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Request == "" || s.Name == "" {
			t.Fatalf("%s: span %d lacks a name or a request ID", path, s.ID)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestCheckSpans(t *testing.T) {
	good := []span{
		{ID: 1, Name: "root", Request: "r", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", Request: "r", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", Request: "r", StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, Name: "c", Request: "r", StartNS: 50, EndNS: 60},
	}
	if err := checkSpans(good); err != nil {
		t.Errorf("well-formed spans rejected: %v", err)
	}
	mutate := func(f func([]span)) []span {
		s := append([]span(nil), good...)
		f(s)
		return s
	}
	for name, bad := range map[string][]span{
		"orphan":            mutate(func(s []span) { s[1].Parent = 9 }),
		"outside parent":    mutate(func(s []span) { s[1].EndNS = 150 }),
		"other request":     mutate(func(s []span) { s[3].Request = "q" }),
		"overlapping child": mutate(func(s []span) { s[1].EndNS = 95 }),
		"unclosed":          mutate(func(s []span) { s[3].EndNS = 0 }),
	} {
		if err := checkSpans(bad); err == nil {
			t.Errorf("%s: malformed spans accepted", name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	higher := metric{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name         string
		m            metric
		base, change []float64
		want         string
	}{
		{"within bound", lower, []float64{100, 101, 99}, []float64{104, 105, 103}, "unchanged"},
		{"slower than bound", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, "regression"},
		{"less throughput", higher, []float64{1000, 1010, 990}, []float64{850, 860, 840}, "regression"},
		{"more throughput", higher, []float64{1000, 1010, 990}, []float64{1500, 1510, 1490}, "unchanged"},
		{"spread wider than bound", lower, []float64{80, 100, 130}, []float64{85, 102, 125}, "unresolved"},
		{"wide but every run better", lower, []float64{100, 130, 160}, []float64{50, 60, 90}, "unchanged"},
	} {
		if got, _, _, _ := verdict(tc.m, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesOtherProvenance(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		buf, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	metrics := map[string]float64{}
	for _, m := range endToEnd {
		metrics[m.Name] = 1
	}
	base := resultFile{Schema: resultSchema,
		Provenance: provenance{Commit: "a", GoVersion: "go1.24", NumCPU: 2, GOMAXPROCS: 2, Clients: 2, Seed: 1, Seconds: 10, Workloads: []string{"serve-hot"}},
		Runs:       []runResult{{Workload: "serve-hot", Metrics: metrics}}}
	otherCommit, otherSeed := base, base
	otherCommit.Provenance.Commit = "b"
	otherSeed.Provenance.Seed = 2
	a := write("a.json", base)
	var sink bytes.Buffer
	if err := compareFiles(&sink, a, write("b.json", otherCommit)); err != nil {
		t.Errorf("files differing only in the commit must compare: %v", err)
	}
	if !strings.Contains(sink.String(), "0 unresolved, 0 regression") {
		t.Errorf("identical runs did not compare clean:\n%s", sink.String())
	}
	if err := compareFiles(&sink, a, write("c.json", otherSeed)); err == nil {
		t.Error("files with different seeds compared")
	}
}
