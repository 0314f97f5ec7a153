package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runConfig is one benchmark run: a workload, a seed, and how long (or how
// many requests) the timed window measures.
type runConfig struct {
	w    *workload
	seed int64
	// seconds is the length of the timed window. requests, when positive,
	// replaces it with a fixed request count (split over the clients), so
	// tests and exact-count comparisons are independent of machine speed.
	seconds  float64
	requests int
	// trace selects the traced run (per-layer metrics) over the untraced
	// one (end-to-end metrics).
	trace bool
	sc    scale
	// outDir receives the span file of a traced run.
	outDir string
}

// runResult is what one run reports.
type runResult struct {
	Workload     string             `json:"workload"`
	Trace        int                `json:"trace"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Samples      int                `json:"samples"`
	Rounds       int                `json:"rounds"`
	P99Supported bool               `json:"p99_supported"`
	ClassCounts  map[string]int     `json:"class_counts"`
	Metrics      map[string]float64 `json:"metrics"`
}

// env is a set-up benchmark: a warmed stack and the verified universe.
type env struct {
	st *stack
	u  *universe
}

// setUp builds the stack, generates the workload and runs the verified
// warm-up pass, returning the wall time of all of it — the setup_s metric.
// Every response of the pass is decoded, its plan rebuilt and re-verified
// client-side, and its certificate recorded; a response that fails aborts
// the run, because every later check compares against these records.
func setUp(cfg runConfig) (*env, float64, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := newStack(cfg.sc.memoCap)
	if err != nil {
		return nil, 0, err
	}
	u := newUniverse(cfg.w, cfg.seed, cfg.sc)
	h := st.rt.Handler()
	err = eachClient(func(cl int) error {
		c := newClient()
		return u.generate(cl, func(idx int32, src source) error {
			it := &u.items[idx]
			if err := c.do(h, it, ""); err != nil {
				return err
			}
			resp, err := c.response(it)
			if err == nil {
				err = verifyAndRecord(it, src, resp)
			}
			if err != nil {
				return fmt.Errorf("warm-up: %s item %d: %w", classNames[it.class], idx, err)
			}
			return nil
		})
	})
	if err == nil {
		// Further requests up to a fixed total, checked like timed ones,
		// bring the process to speed: the first requests after an idle
		// spell run 30–50 % slow, and they belong to set-up, not to the
		// window.
		var win *window
		win, err = runWindow(&env{st, u}, 0, max(clients, cfg.sc.warmTotal-len(u.items)))
		if err == nil && win.failed > 0 {
			err = fmt.Errorf("warm-up: %d of %d requests failed: %s", win.failed, win.attempted, win.firstFailure)
		}
	}
	if err != nil {
		st.close()
		return nil, 0, err
	}
	return &env{st, u}, time.Since(t0).Seconds(), nil
}

// eachClient runs f once per client, concurrently, and joins the errors.
func eachClient(f func(client int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			errs[cl] = f(cl)
		}(cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sample is one verified response of a window: when it completed (since
// the window's start) and how long the client waited for it.
type sample struct {
	end, lat time.Duration
}

// window is the raw outcome of one closed-loop window.
type window struct {
	samples      [clients][]sample
	attempted    int
	failed       int
	firstFailure string
	classCounts  [numClasses]int
	// from and sent are, per client, the plan position the window started
	// at and the number of steps it took.
	from, sent [clients]int
	ratioSum   float64
	ratioMax   float64
	wall       time.Duration
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration
	// stack is what the stack's own books counted during the window.
	stack counters
}

// runWindow drives the stack with the closed-loop clients, each walking on
// through its plan, until dur has passed — or, when quota is positive,
// until quota requests have been sent in total. Every response is checked
// against its verified record; a mismatch, a non-200 or a refusal is a
// failed operation and yields no sample.
func runWindow(e *env, dur time.Duration, quota int) (*window, error) {
	win := &window{}
	per := make([]window, clients)
	for cl := range per {
		// Room for the fastest workload, so no append grows inside the
		// window.
		n := quota/clients + 1
		if quota <= 0 {
			n = int(dur.Seconds()*40000) + 1024
		}
		per[cl].samples[cl] = make([]sample, 0, n)
	}
	before, err := e.st.counters()
	if err != nil {
		return nil, err
	}
	for cl, p := range e.u.plans {
		win.from[cl] = p.pos
	}
	h := e.st.rt.Handler()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	err = eachClient(func(cl int) error {
		return per[cl].client(h, e.u, cl, start, dur, pick(cl < quota%clients, quota/clients+1, quota/clients), quota > 0)
	})
	win.wall = time.Since(start)
	win.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	after, err := e.st.counters()
	if err != nil {
		return nil, err
	}
	win.stack = after.sub(before)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.gcCycles = ms1.NumGC - ms0.NumGC
	win.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for cl := range per {
		p := &per[cl]
		win.samples[cl] = p.samples[cl]
		win.sent[cl] = p.attempted
		win.attempted += p.attempted
		win.failed += p.failed
		if win.firstFailure == "" {
			win.firstFailure = p.firstFailure
		}
		for c := range win.classCounts {
			win.classCounts[c] += p.classCounts[c]
		}
		win.ratioSum += p.ratioSum
		win.ratioMax = max(win.ratioMax, p.ratioMax)
	}
	return win, nil
}

// client is one closed-loop caller's share of a window.
func (w *window) client(h http.Handler, u *universe, cl int, start time.Time, dur time.Duration, quota int, counted bool) error {
	c := newClient()
	plan := u.plans[cl]
	for {
		if counted && w.attempted >= quota {
			return nil
		}
		it := &u.items[plan.next()]
		t0 := time.Now()
		if err := c.do(h, it, ""); err != nil {
			return err
		}
		t1 := time.Now()
		w.attempted++
		w.classCounts[it.class]++
		resp, err := c.response(it)
		switch {
		case err != nil:
			w.fail(fmt.Sprintf("%s request: %v", classNames[it.class], err))
		case !it.matches(resp):
			w.fail(fmt.Sprintf("%s response differs from its verified record (makespan %v, lower bound %v)", classNames[it.class], resp.Makespan, resp.LowerBound))
		default:
			w.samples[cl] = append(w.samples[cl], sample{end: t1.Sub(start), lat: t1.Sub(t0)})
			r := resp.Makespan / resp.LowerBound
			w.ratioSum += r
			w.ratioMax = max(w.ratioMax, r)
		}
		if !counted && t1.Sub(start) >= dur {
			return nil
		}
	}
}

func (w *window) fail(msg string) {
	w.failed++
	if w.firstFailure == "" {
		w.firstFailure = msg
	}
}

// summary is the end-to-end reading of a window.
type summary struct {
	throughput, p50us, p99us float64
	samples, rounds          int
	p99Supported             bool
}

// summarize reads throughput and latency off a window. A timed window is
// cut into one-second rounds and each figure is the median over the
// rounds, which keeps a single stall (a GC cycle, a noisy neighbour) from
// moving the run's number; a round too small to carry p99 under the
// ten-samples-beyond rule — and any counted window — falls back to one
// round over everything.
func summarize(win *window, dur time.Duration, counted bool) summary {
	var all []sample
	for _, s := range win.samples {
		all = append(all, s...)
	}
	s := summary{samples: len(all)}
	whole := func() summary {
		s.rounds = 1
		s.throughput = float64(len(all)) / win.wall.Seconds()
		s.p50us, s.p99us = latencies(all)
		s.p99Supported = supported(len(all), 0.99)
		return s
	}
	rounds := int(dur.Seconds())
	if counted || rounds < 2 {
		return whole()
	}
	roundLen := dur / time.Duration(rounds)
	byRound := make([][]sample, rounds)
	for _, x := range all {
		if r := int(x.end / roundLen); r < rounds {
			byRound[r] = append(byRound[r], x)
		}
	}
	var thr, p50, p99 []float64
	for _, r := range byRound {
		if !supported(len(r), 0.99) {
			return whole()
		}
		a, b := latencies(r)
		thr = append(thr, float64(len(r))/roundLen.Seconds())
		p50 = append(p50, a)
		p99 = append(p99, b)
	}
	s.rounds, s.p99Supported = rounds, true
	s.throughput, s.p50us, s.p99us = median(thr), median(p50), median(p99)
	return s
}

// latencies returns the nearest-rank p50 and p99 of a sample set, in µs.
func latencies(xs []sample) (p50, p99 float64) {
	lat := make([]float64, len(xs))
	for i, x := range xs {
		lat[i] = float64(x.lat.Nanoseconds()) / 1e3
	}
	sort.Float64s(lat)
	return percentile(lat, 0.5), percentile(lat, 0.99)
}

// share is a/b, 0 when b is 0.
func share[T int | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkIntent fails a run whose window did not do what the workload's name
// says, rather than let it print a number that describes something else:
// hits where misses were meant, a stolen lineage, a class mix that differs
// from the seeded schedule.
func checkIntent(w *workload, e *env, win *window) error {
	d := win.stack
	memoHit := share(d.memoHits, d.memoHits+d.memoMisses)
	compileHit := share(d.compileHits, d.compileHits+d.compileMisses)
	n := uint64(win.attempted)
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s intent: "+format, append([]any{w.name}, args...)...))
	}
	if d.routed != n {
		bad("router admitted %d of %d requests", d.routed, n)
	}
	if d.verifyFail != 0 {
		bad("%d server-side verification failures", d.verifyFail)
	}
	switch w.name {
	case "serve-hot":
		// A stolen request is served by the other shard and misses there
		// once per popular item; beyond that, every request must hit.
		if memoHit < 0.999 && d.memoMisses > uint64(e.u.pools[clsHot]*(shards-1)) {
			bad("memo hit ratio %.4f (%d misses), want ≥ 0.999", memoHit, d.memoMisses)
		}
	case "serve-cold":
		if memoHit > 0.001 || compileHit > 0.001 {
			bad("memo hit ratio %.4f and compiled hit ratio %.4f, want both ≤ 0.001", memoHit, compileHit)
		}
	case "serve-dag":
		// That every request carried a graph is the class-mix check below.
		if memoHit > 0.001 {
			bad("memo hit ratio %.4f, want ≤ 0.001", memoHit)
		}
	case "serve-replan":
		if share(d.pinned, d.routed) < 0.999 {
			bad("pinned share %.4f, want ≥ 0.999", share(d.pinned, d.routed))
		}
		if d.synthesized == 0 {
			bad("no probe outcome was synthesized from lineage state")
		}
		if memoHit > 0.001 {
			bad("memo hit ratio %.4f, want ≤ 0.001", memoHit)
		}
	}
	// The class mix the stack counted must be the seeded schedule: walk
	// each client's pattern over the steps it took and compare with the
	// router's and the shards' own books.
	var want [numClasses]int
	for cl, p := range e.u.plans {
		to, from := p.classCounts(win.from[cl]+win.sent[cl]), p.classCounts(win.from[cl])
		for c := range want {
			want[c] += to[c] - from[c]
		}
	}
	if got := int(d.pinned); got != want[clsLineage] {
		bad("router pinned %d requests, schedule holds %d lineage steps", got, want[clsLineage])
	}
	if got := int(d.graphReqs); got != want[clsDAG] {
		bad("shards counted %d graph requests, schedule holds %d", got, want[clsDAG])
	}
	if got := int(d.routed - d.binary); got != want[clsHotJSON] {
		bad("router saw %d JSON requests, schedule holds %d", got, want[clsHotJSON])
	}
	return errors.Join(errs...)
}
