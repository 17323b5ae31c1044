package main

// metricDef names one reported metric. The end-to-end list, with its
// bounds, and the per-layer list are repeated in BENCHMARK.json, which is
// what the driver reads; a test keeps the two in step.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a map-service client and an operator see, the
// same on every workload.
var endToEnd = []metricDef{
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"answered_share", "share", "higher", 0.03},
	{"objective_ratio", "ratio", "lower", 0.10},
	{"rss_mib", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, layer = module name. A metric that
// does not apply to a workload (slice counters on a matrix oracle, router
// overhead without a router) reads 0 there.
var perLayer = []metricDef{
	{name: "graph.load_s", unit: "s", better: "lower"},
	{name: "graph.memindex_build_ms", unit: "ms", better: "lower"},
	{name: "graph.bytes_per_node", unit: "B/node", better: "lower"},
	{name: "graph.postings_calls", unit: "count", better: "lower"},
	{name: "graph.postings_us", unit: "us", better: "lower"},
	{name: "graph.apply_ms", unit: "ms", better: "lower"},
	{name: "textindex.postings_us", unit: "us", better: "lower"},
	{name: "apsp.matrix_build_s", unit: "s", better: "lower"},
	{name: "apsp.index_build_s", unit: "s", better: "lower"},
	{name: "apsp.index_open_ms", unit: "ms", better: "lower"},
	{name: "apsp.index_bytes", unit: "B", better: "lower"},
	{name: "apsp.pair_lookups", unit: "count", better: "lower"},
	{name: "apsp.pair_ns", unit: "ns", better: "lower"},
	{name: "apsp.slice_calls", unit: "count", better: "lower"},
	{name: "apsp.slice_ms", unit: "ms", better: "lower"},
	{name: "apsp.slice_hit_share", unit: "share", better: "higher"},
	{name: "apsp.slice_working_set_mib", unit: "MiB", better: "lower"},
	{name: "apsp.sweep_ms", unit: "ms", better: "lower"},
	{name: "apsp.lazy_sweeps", unit: "count", better: "lower"},
	{name: "apsp.path_us", unit: "us", better: "lower"},
	{name: "core.run_ms_p50", unit: "ms", better: "lower"},
	{name: "core.run_ms_p95", unit: "ms", better: "lower"},
	{name: "core.bucketbound_ms_p50", unit: "ms", better: "lower"},
	{name: "core.osscaling_ms_p50", unit: "ms", better: "lower"},
	{name: "core.greedy_ms_p50", unit: "ms", better: "lower"},
	{name: "core.self_ms", unit: "ms", better: "lower"},
	{name: "core.labels_created", unit: "count", better: "lower"},
	{name: "core.labels_dequeued", unit: "count", better: "lower"},
	{name: "core.pruned_share", unit: "share", better: "higher"},
	{name: "core.plan_sweeps", unit: "count", better: "lower"},
	{name: "core.shared_sweeps", unit: "count", better: "higher"},
	{name: "core.allocs_per_op", unit: "count", better: "lower"},
	{name: "core.bytes_per_op", unit: "B", better: "lower"},
	{name: "kor.engine_build_s", unit: "s", better: "lower"},
	{name: "kor.run_ms_p50", unit: "ms", better: "lower"},
	{name: "kor.overhead_us", unit: "us", better: "lower"},
	{name: "kor.hit_us", unit: "us", better: "lower"},
	{name: "kor.cache_hit_share", unit: "share", better: "higher"},
	{name: "kor.coalesced_share", unit: "share", better: "higher"},
	{name: "kor.cache_evictions", unit: "count", better: "lower"},
	{name: "kor.patch_ms", unit: "ms", better: "lower"},
	{name: "korapi.decode_us", unit: "us", better: "lower"},
	{name: "korapi.encode_us", unit: "us", better: "lower"},
	{name: "korapi.response_bytes", unit: "B", better: "lower"},
	{name: "korserve.overhead_us_p50", unit: "us", better: "lower"},
	{name: "korserve.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "korserve.shed_share", unit: "share", better: "lower"},
	{name: "korserve.peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "korserve.patch_ms_p50", unit: "ms", better: "lower"},
	{name: "korserve.degraded_window_share", unit: "share", better: "lower"},
	{name: "korserve.open_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "korserve.open_latency_p95_ms", unit: "ms", better: "lower"},
	{name: "korserve.generator_lag_ms_p95", unit: "ms", better: "lower"},
	{name: "cluster.cut_s", unit: "s", better: "lower"},
	{name: "cluster.scatter_width", unit: "count", better: "lower"},
	{name: "cluster.merge_us", unit: "us", better: "lower"},
	{name: "korrouter.overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "korrouter.lost_route_share", unit: "share", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.sample_queries", unit: "count", better: "higher"},
}
