package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"malsched/internal/core"
	"malsched/internal/engine"
	"malsched/internal/instance"
	"malsched/internal/precedence"
	"malsched/internal/server"
	"malsched/internal/solver"
	"malsched/internal/verify"
	"malsched/internal/wire"
)

// layerPass is the traced pass: one client replays the next requests of
// the clients' plans, each of them three ways — through the whole stack,
// straight into one shard, and stage by stage through public calls into
// every layer on bench-owned engines — recording a span per call. The
// stopwatch is this package's; nothing inside the program is touched.
type layerPass struct {
	e   *env
	tr  *tracer
	dur map[string][]float64 // stage name → µs per call
	// direct is a third shard outside the stack, so that serving a request
	// "straight into one shard" meets the same cache state the request
	// class meets in the stack: hot items primed, everything else unseen.
	direct *server.Server
	// engMemo answers hot items from its memo, engCold (memo off) solves
	// every item, engWarm holds the lineages' warm states.
	engMemo, engCold, engWarm *engine.Engine
	primed                    map[int32]bool

	client, canned *client
	failed         int
	firstFailure   string
	attempted      int

	routerTraced, routerUntraced []float64
	serverSelf, routerSelf       []float64
	probeUS                      []float64
	breakpoints, probes          int
	compiledItems, served        int
	reqBytes, respBytes          int
	dagRatioMax                  float64
	allocs                       map[string][]float64
}

func newLayerPass(e *env, sc scale) *layerPass {
	return &layerPass{
		e:       e,
		tr:      newTracer(sc.sample * 20),
		dur:     map[string][]float64{},
		direct:  server.New(server.Config{MemoCapacity: sc.memoCap}),
		engMemo: engine.New(engine.Config{}),
		engCold: engine.New(engine.Config{MemoCapacity: -1}),
		engWarm: engine.New(engine.Config{}),
		primed:  map[int32]bool{},
		client:  newClient(),
		canned:  newClient(),
		allocs:  map[string][]float64{},
	}
}

// stage times one call as a child span of parent.
func (lp *layerPass) stage(name, rid string, parent int32, f func()) float64 {
	id := lp.tr.begin(name, rid, parent)
	f()
	us := lp.tr.end(id)
	lp.dur[name] = append(lp.dur[name], us)
	return us
}

func (lp *layerPass) fail(msg string) {
	lp.failed++
	if lp.firstFailure == "" {
		lp.firstFailure = msg
	}
}

// decoded is a request as the server sees it after decoding.
type decoded struct {
	in    *instance.Instance
	graph [][]int
	opts  engine.Options
	// lineage is the hash of the request's lineage key (0 without one).
	lineage uint64
}

// decode turns an item's bytes into the request, in the item's codec, the
// way the shard's handlers do.
func decode(it *item) (decoded, error) {
	var d decoded
	var ro *wire.RequestOptions
	if it.class == clsHotJSON {
		var req wire.ScheduleRequest
		if err := json.Unmarshal(it.body, &req); err != nil {
			return d, err
		}
		in, err := server.DecodeInstance(req.Instance)
		if err != nil {
			return d, err
		}
		d.in, d.graph, ro = in, req.Graph, req.Options
	} else {
		var err error
		if d.in, d.graph, ro, err = wire.DecodeScheduleRequest(it.body); err != nil {
			return d, err
		}
	}
	d.opts.Edges = d.graph
	if ro != nil {
		d.opts.Solver = ro.Solver
		if ro.Lineage != "" {
			h := fnv.New64a()
			h.Write([]byte(ro.Lineage))
			d.lineage = h.Sum64()
		}
	}
	return d, nil
}

// nextItem takes the next request of the clients' plans, alternating
// between them, so the pass continues the sequences exactly where the
// window left them: a cold item is one the caches evicted longest ago, a
// lineage step is the next of its chain.
func (lp *layerPass) nextItem(i int) (int32, *item) {
	idx := lp.e.u.plans[i%clients].next()
	return idx, &lp.e.u.items[idx]
}

// primeDirect sends the popular set once to the direct shard, so that hot
// requests are memo hits there as they are in the stack.
func (lp *layerPass) primeDirect() error {
	for idx := range lp.e.u.items {
		it := &lp.e.u.items[idx]
		if it.class != clsHot && it.class != clsHotJSON {
			continue
		}
		if err := lp.client.do(lp.direct.Handler(), it, ""); err != nil {
			return err
		}
		if _, err := lp.client.response(it); err != nil {
			return fmt.Errorf("priming the direct shard: %w", err)
		}
	}
	return nil
}

// one replays request i of the pass.
func (lp *layerPass) one(i int, wname string) error {
	idx, it := lp.nextItem(i)
	rid := fmt.Sprintf("bench-%s-%d", wname, i)
	lp.attempted++
	lp.reqBytes += len(it.body)

	// Whole stack, through the router. Every other request goes untraced
	// (no span, no request ID header): the gap between the two halves is
	// what the watching costs.
	h := lp.e.st.rt.Handler()
	traced := i%2 == 0
	t0 := time.Now()
	if traced {
		id := lp.tr.begin("router.serve", rid, 0)
		if err := lp.client.do(h, it, rid); err != nil {
			return err
		}
		lp.tr.end(id)
	} else if err := lp.client.do(h, it, ""); err != nil {
		return err
	}
	routerUS := sinceUS(t0)
	if traced {
		lp.routerTraced = append(lp.routerTraced, routerUS)
	} else {
		lp.routerUntraced = append(lp.routerUntraced, routerUS)
	}
	lp.dur["router.serve"] = append(lp.dur["router.serve"], routerUS)
	resp, err := lp.client.response(it)
	if err != nil || !it.matches(resp) {
		lp.fail(fmt.Sprintf("%s request through the router: mismatch or error (%v)", classNames[it.class], err))
		return nil
	}
	lp.served++
	lp.probes += resp.Probes
	lp.respBytes += len(lp.client.rec.body)
	if it.class == clsDAG {
		lp.dagRatioMax = max(lp.dagRatioMax, resp.Makespan/resp.LowerBound)
	}

	// The harness itself: the same request against a handler that only
	// writes the bytes just received.
	body := append([]byte(nil), lp.client.rec.body...)
	t0 = time.Now()
	if err := lp.canned.do(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(body) }), it, ""); err != nil {
		return err
	}
	if _, err := lp.canned.response(it); err != nil {
		return err
	}
	lp.dur["bench.client"] = append(lp.dur["bench.client"], sinceUS(t0))

	// Straight into one shard.
	serverUS := lp.stage("server.serve", rid, 0, func() { err = lp.client.do(lp.direct.Handler(), it, rid) })
	if err != nil {
		return err
	}
	direct, err := lp.client.response(it)
	if err != nil || !it.matches(direct) {
		lp.fail(fmt.Sprintf("%s request into one shard: mismatch or error (%v)", classNames[it.class], err))
		return nil
	}
	lp.routerSelf = append(lp.routerSelf, routerUS-serverUS)

	staged, err := lp.pipeline(idx, it, rid, direct.FromMemo)
	if err != nil {
		return err
	}
	if staged >= 0 {
		lp.serverSelf = append(lp.serverSelf, serverUS-staged)
	}
	return nil
}

// pipeline walks one request through the layers a shard runs it through,
// one public call per layer, under a "pipeline" root span; the extra
// direct calls into the solver layers follow under a "layers" root. It
// returns the time the served path's stages took (−1 when the direct shard
// took another path than the staged one, so no self time can be derived).
func (lp *layerPass) pipeline(idx int32, it *item, rid string, servedFromMemo bool) (float64, error) {
	hot := it.class == clsHot || it.class == clsHotJSON
	var d decoded
	var err error
	if hot && !lp.primed[idx] {
		// Fill the memo once, untimed, so the staged memo probe is the hit
		// the stack serves.
		if d, err = decode(it); err != nil {
			return 0, err
		}
		if out := lp.engMemo.ScheduleCompiled(d.in, lp.engMemo.CompiledFor(d.in), d.opts, 0, engine.Fingerprint(d.in, d.opts)); out.Err != nil {
			return 0, out.Err
		}
		lp.primed[idx] = true
	}

	root := lp.tr.begin("pipeline", rid, 0)
	var sum float64
	add := func(name string, f func()) { sum += lp.stage(name, rid, root, f) }

	if it.class != clsHotJSON {
		// The router peeks the key, the shard never does: not part of sum.
		lp.stage("wire.route_key", rid, root, func() { _, _, err = wire.RouteKey(it.body) })
		if err != nil {
			return 0, err
		}
		add("wire.decode_req", func() { d, err = decode(it) })
	} else {
		add("wire.decode_req_json", func() { d, err = decode(it) })
	}
	if err != nil {
		return 0, err
	}
	if d.graph != nil {
		add("precedence.validate_edges", func() { err = precedence.ValidateEdges(d.in.N(), d.graph) })
		if err != nil {
			return 0, err
		}
	}
	var hash uint64
	add("engine.fingerprint", func() { hash = engine.Fingerprint(d.in, d.opts) })

	var out engine.Outcome
	var ci *instance.Compiled
	switch {
	case hot:
		// The shard resolves the compiled tables before it probes the memo,
		// so a hit pays a compiled-cache lookup too.
		add("engine.compiled_for", func() { ci = lp.engMemo.CompiledFor(d.in) })
		add("engine.memo_hit", func() { out = lp.engMemo.ScheduleCompiled(d.in, ci, d.opts, 0, hash) })
		if out.Err == nil && !out.FromMemo {
			out.Err = fmt.Errorf("bench: primed memo missed")
		}
	default:
		add("instance.compile", func() { ci = instance.Compile(d.in) })
		lp.breakpoints += len(ci.GlobalBreakpoints())
		lp.compiledItems++
		if d.lineage != 0 {
			add("engine.warm_solve", func() { out = lp.engWarm.ScheduleWarm(d.in, ci, d.opts, 0, lp.engWarm.WarmFor(d.lineage)) })
		} else {
			add("engine.solve", func() { out = lp.engCold.ScheduleCompiled(d.in, ci, d.opts, 0, hash) })
		}
	}
	if out.Err != nil {
		return 0, out.Err
	}
	cert := verify.Certified{Plan: out.Plan, Makespan: out.Makespan, LowerBound: out.LowerBound}
	add("verify.plan", func() { err = verify.Plan(d.in, cert, false) })
	if err == nil && d.graph != nil {
		add("verify.precedence", func() { err = verify.Precedence(d.in, d.graph, out.Plan) })
	}
	if err != nil {
		return 0, err
	}
	resp := server.ResponseOf(d.in, out, 0)
	if it.class == clsHotJSON {
		add("wire.encode_resp_json", func() {
			var buf bytes.Buffer
			err = json.NewEncoder(&buf).Encode(resp)
		})
	} else {
		add("wire.encode_resp", func() { wire.PutBuffer(wire.AppendScheduleResponse(wire.GetBuffer(), resp)) })
	}
	lp.tr.end(root)
	if err != nil {
		return 0, err
	}
	// The staged certificate must be the served one, bit for bit.
	if !it.matches(resp) {
		lp.fail(fmt.Sprintf("%s request staged layer by layer differs from its verified record", classNames[it.class]))
	}
	if !hot {
		if err := lp.solverLayers(it, d, ci, rid); err != nil {
			return 0, err
		}
	}
	if servedFromMemo != hot {
		return -1, nil
	}
	return sum, nil
}

// solverLayers calls the layers below the engine directly: the λ-search
// on a fresh and on a just-used Scratch, one dual step at the accepted
// guess, the DAG heuristic and its crossover half, and the registry
// solver whose extra over the bare algorithm is the dispatch cost.
func (lp *layerPass) solverLayers(it *item, d decoded, ci *instance.Compiled, rid string) error {
	root := lp.tr.begin("layers", rid, 0)
	defer lp.tr.end(root)
	var err error
	var bare float64
	name := solver.PaperSolverName
	if d.graph != nil {
		name = solver.DAGSolverName
		var g *precedence.Graph
		bare = lp.stage("precedence.solve", rid, root, func() {
			if g, err = precedence.NewGraph(d.in, d.graph); err == nil {
				_, err = g.Solve(precedence.Options{Compiled: ci, Scratch: core.NewScratch()})
			}
		})
		if err != nil {
			return err
		}
		lp.stage("precedence.crossover", rid, root, func() {
			if g, err = precedence.NewGraph(d.in, d.graph); err == nil {
				_, err = g.SolveCrossover(precedence.Options{Compiled: ci, Scratch: core.NewScratch()})
			}
		})
	} else {
		sc := core.NewScratch()
		var res core.Result
		bare = lp.stage("core.search", rid, root, func() {
			res, err = core.Approximate(d.in, core.Options{Compiled: ci, Scratch: sc})
		})
		if err != nil {
			return err
		}
		lp.probeUS = append(lp.probeUS, bare/float64(res.Probes))
		lp.stage("core.search_hot", rid, root, func() {
			_, err = core.Approximate(d.in, core.Options{Compiled: ci, Scratch: sc})
		})
		lp.stage("core.dual_step", rid, root, func() {
			core.DualProber{}.Probe(d.in, ci, res.AcceptedLambda, core.DefaultParams(), sc, nil)
		})
	}
	if err != nil {
		return err
	}
	sv, ok := solver.Lookup(name)
	if !ok {
		return solver.ErrUnknown(name)
	}
	full := lp.stage("solver.solve", rid, root, func() {
		_, err = sv.Solve(d.in, solver.Options{Compiled: ci, Scratch: core.NewScratch(), Edges: d.graph})
	})
	lp.dur["solver.dispatch"] = append(lp.dur["solver.dispatch"], full-bare)
	return err
}

// sinceUS is the time since t0 in µs.
func sinceUS(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// mallocs runs f and returns how many heap objects the process allocated
// meanwhile (exact: ReadMemStats stops the world and flushes the per-P
// caches, which is why the allocation counts come from a loop of their
// own, after the timings).
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// allocsOne counts the allocations of the layer calls on one further
// request of the plans.
func (lp *layerPass) allocsOne(i int) error {
	idx, it := lp.nextItem(i)
	lp.attempted++
	var err error
	note := func(name string, f func()) { lp.allocs[name] = append(lp.allocs[name], mallocs(f)) }

	note("router", func() { err = lp.client.do(lp.e.st.rt.Handler(), it, "") })
	if err != nil {
		return err
	}
	if resp, rerr := lp.client.response(it); rerr != nil || !it.matches(resp) {
		lp.fail(fmt.Sprintf("%s request through the router: mismatch or error (%v)", classNames[it.class], rerr))
	}
	note("server", func() { err = lp.client.do(lp.direct.Handler(), it, "") })
	if err != nil {
		return err
	}
	if resp, rerr := lp.client.response(it); rerr != nil || !it.matches(resp) {
		lp.fail(fmt.Sprintf("%s request into one shard: mismatch or error (%v)", classNames[it.class], rerr))
	}
	var d decoded
	note("decode", func() { d, err = decode(it) })
	if err != nil {
		return err
	}
	switch {
	case it.class == clsHot || it.class == clsHotJSON:
		hash := engine.Fingerprint(d.in, d.opts)
		ci := lp.engMemo.CompiledFor(d.in)
		if !lp.primed[idx] {
			lp.engMemo.ScheduleCompiled(d.in, ci, d.opts, 0, hash)
			lp.primed[idx] = true
		}
		note("memo_hit", func() { lp.engMemo.ScheduleCompiled(d.in, ci, d.opts, 0, hash) })
	case d.graph == nil:
		ci := instance.Compile(d.in)
		sc := core.NewScratch()
		note("search", func() { _, err = core.Approximate(d.in, core.Options{Compiled: ci, Scratch: sc}) })
	}
	return err
}

// run replays the sample and derives the per-layer metrics. win is the
// untraced window that preceded the pass; the counters of the stack's own
// books come from it.
func (lp *layerPass) run(cfg runConfig, win *window) (map[string]float64, error) {
	if err := lp.primeDirect(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.sc.sample; i++ {
		if err := lp.one(i, cfg.w.name); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.sc.sample/10; i++ {
		if err := lp.allocsOne(cfg.sc.sample + i); err != nil {
			return nil, err
		}
	}
	var scrapes []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := scrape(lp.e.st.srv[0].Handler()); err != nil {
			return nil, err
		}
		scrapes = append(scrapes, sinceUS(t0))
	}
	if err := checkSpans(lp.tr.spans); err != nil {
		return nil, fmt.Errorf("bench: span file would be malformed: %w", err)
	}
	if cfg.outDir != "" {
		if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".jsonl"), lp.tr.spans); err != nil {
			return nil, err
		}
	}

	med := func(name string) float64 { return median(lp.dur[name]) }
	d := win.stack
	// Whichever solve a request's class runs: cold or warm.
	solve := median(append(append([]float64(nil), lp.dur["engine.solve"]...), lp.dur["engine.warm_solve"]...))
	m := map[string]float64{
		"wire.route_key_us":        med("wire.route_key"),
		"wire.decode_req_us":       med("wire.decode_req"),
		"wire.encode_resp_us":      med("wire.encode_resp"),
		"wire.decode_req_json_us":  med("wire.decode_req_json"),
		"wire.encode_resp_json_us": med("wire.encode_resp_json"),
		"wire.allocs_per_decode":   median(lp.allocs["decode"]),
		"wire.req_bytes":           share(lp.reqBytes, cfg.sc.sample),
		"wire.resp_bytes":          share(lp.respBytes, lp.served),

		"router.serve_us":       med("router.serve"),
		"router.self_us":        median(lp.routerSelf),
		"router.allocs_per_req": median(lp.allocs["router"]),
		"router.local_share":    share(d.local, d.local+d.steals),
		"router.steal_share":    share(d.steals, d.local+d.steals),
		"router.pinned_share":   share(d.pinned, d.routed),
		"router.shed_share":     share(d.shed, d.routed+d.shed),
		"router.queue_wait_us":  d.stageMean("router.queue"),
		"router.forward_us":     d.stageMean("router.forward"),

		"server.serve_us":           med("server.serve"),
		"server.self_us":            median(lp.serverSelf),
		"server.allocs_per_req":     median(lp.allocs["server"]),
		"server.admit_reject_share": share(d.rejected, d.accepted+d.rejected),
		"server.stage_queue_us":     d.stageMean("server.queue"),
		"server.stage_compile_us":   d.stageMean("server.compile"),
		"server.stage_solve_us":     d.stageMean("server.solve"),
		"server.stage_verify_us":    d.stageMean("server.verify"),
		"server.stage_encode_us":    d.stageMean("server.encode"),

		"engine.fingerprint_us":      med("engine.fingerprint"),
		"engine.memo_hit_us":         med("engine.memo_hit"),
		"engine.allocs_per_hit":      median(lp.allocs["memo_hit"]),
		"engine.memo_hit_ratio":      share(d.memoHits, d.memoHits+d.memoMisses),
		"engine.compile_hit_ratio":   share(d.compileHits, d.compileHits+d.compileMisses),
		"engine.solve_us":            med("engine.solve"),
		"engine.warm_solve_us":       med("engine.warm_solve"),
		"engine.synthesized_per_req": share(int(d.synthesized), win.attempted),

		"instance.compile_us":    med("instance.compile"),
		"instance.compile_share": 0,
		"instance.breakpoints":   share(lp.breakpoints, lp.compiledItems),
		"instance.residual_us":   median(append(append([]float64(nil), lp.e.u.residualNS[0]...), lp.e.u.residualNS[1]...)) / 1e3,

		"core.search_us":         med("core.search"),
		"core.search_hot_us":     med("core.search_hot"),
		"core.probes_per_req":    share(lp.probes, lp.served),
		"core.probe_us":          median(lp.probeUS),
		"core.dual_step_us":      med("core.dual_step"),
		"core.allocs_per_search": median(lp.allocs["search"]),
		"solver.dispatch_us":     med("solver.dispatch"),

		"precedence.solve_us":          med("precedence.solve"),
		"precedence.crossover_us":      med("precedence.crossover"),
		"precedence.list_us":           med("precedence.solve") - med("precedence.crossover"),
		"precedence.validate_edges_us": med("precedence.validate_edges"),
		"precedence.ratio_max":         lp.dagRatioMax,

		"verify.plan_us":       med("verify.plan"),
		"verify.precedence_us": med("verify.precedence"),
		"verify.share":         0,

		"obs.scrape_us": median(scrapes),

		"bench.client_us":          med("bench.client"),
		"bench.trace_overhead_pct": 0,
		"bench.gc_cycles":          float64(win.gcCycles),
		"bench.gc_pause_ms":        float64(win.gcPause.Nanoseconds()) / 1e6,
		"bench.cpu_util":           win.cpu.Seconds() / (win.wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
	}
	if c := m["instance.compile_us"]; c+solve > 0 {
		m["instance.compile_share"] = c / (c + solve)
	}
	if s := m["server.serve_us"]; s > 0 {
		m["verify.share"] = (m["verify.plan_us"] + m["verify.precedence_us"]) / s
	}
	if u := median(lp.routerUntraced); u > 0 {
		m["bench.trace_overhead_pct"] = (median(lp.routerTraced) - u) / u * 100
	}
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: per-layer metric %s is %v", name, v)
		}
	}
	return m, nil
}
