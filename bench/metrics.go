package main

// metric declares one reported number. BENCHMARK.json repeats the same
// declarations for the driver; TestManifestMatchesCode keeps the two in
// lockstep.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression; per-layer
	// metrics carry none.
	Bound float64
}

// endToEnd are the metrics a caller of the service sees; every workload
// reports all of them from the untraced timed window.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"ok_share", "share", "higher", 0.001},
	{"allocs_per_req", "count", "lower", 0.03},
	{"ratio_mean", "ratio", "lower", 0.05},
}

// perLayer are the single-layer numbers of the traced run, timed from this
// package around public calls into each layer (medians in µs unless the
// unit says otherwise). A metric whose layer a workload never reaches
// reads 0 there.
var perLayer = []metric{
	{"wire.route_key_us", "us", "lower", 0},
	{"wire.decode_req_us", "us", "lower", 0},
	{"wire.encode_resp_us", "us", "lower", 0},
	{"wire.decode_req_json_us", "us", "lower", 0},
	{"wire.encode_resp_json_us", "us", "lower", 0},
	{"wire.allocs_per_decode", "count", "lower", 0},
	{"wire.req_bytes", "bytes", "lower", 0},
	{"wire.resp_bytes", "bytes", "lower", 0},

	{"router.serve_us", "us", "lower", 0},
	{"router.self_us", "us", "lower", 0},
	{"router.allocs_per_req", "count", "lower", 0},
	{"router.local_share", "share", "higher", 0},
	{"router.steal_share", "share", "lower", 0},
	{"router.pinned_share", "share", "higher", 0},
	{"router.shed_share", "share", "lower", 0},
	{"router.queue_wait_us", "us", "lower", 0},
	{"router.forward_us", "us", "lower", 0},

	{"server.serve_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.allocs_per_req", "count", "lower", 0},
	{"server.admit_reject_share", "share", "lower", 0},
	{"server.stage_queue_us", "us", "lower", 0},
	{"server.stage_compile_us", "us", "lower", 0},
	{"server.stage_solve_us", "us", "lower", 0},
	{"server.stage_verify_us", "us", "lower", 0},
	{"server.stage_encode_us", "us", "lower", 0},

	{"engine.fingerprint_us", "us", "lower", 0},
	{"engine.memo_hit_us", "us", "lower", 0},
	{"engine.allocs_per_hit", "count", "lower", 0},
	{"engine.memo_hit_ratio", "share", "higher", 0},
	{"engine.compile_hit_ratio", "share", "higher", 0},
	{"engine.solve_us", "us", "lower", 0},
	{"engine.warm_solve_us", "us", "lower", 0},
	{"engine.synthesized_per_req", "count", "higher", 0},

	{"instance.compile_us", "us", "lower", 0},
	{"instance.compile_share", "share", "lower", 0},
	{"instance.breakpoints", "count", "lower", 0},
	{"instance.residual_us", "us", "lower", 0},

	{"core.search_us", "us", "lower", 0},
	{"core.search_hot_us", "us", "lower", 0},
	{"core.probes_per_req", "count", "lower", 0},
	{"core.probe_us", "us", "lower", 0},
	{"core.dual_step_us", "us", "lower", 0},
	{"core.allocs_per_search", "count", "lower", 0},
	{"solver.dispatch_us", "us", "lower", 0},

	{"precedence.solve_us", "us", "lower", 0},
	{"precedence.crossover_us", "us", "lower", 0},
	{"precedence.list_us", "us", "lower", 0},
	{"precedence.validate_edges_us", "us", "lower", 0},
	{"precedence.ratio_max", "ratio", "lower", 0},

	{"verify.plan_us", "us", "lower", 0},
	{"verify.precedence_us", "us", "lower", 0},
	{"verify.share", "share", "lower", 0},

	{"obs.scrape_us", "us", "lower", 0},

	{"bench.client_us", "us", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.gc_cycles", "count", "lower", 0},
	{"bench.gc_pause_ms", "ms", "lower", 0},
	{"bench.cpu_util", "share", "higher", 0},
}
