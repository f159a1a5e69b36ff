package main

// The metric dictionary: the one table BENCHMARK.json, README.md's tables,
// the results file and the smoke test all agree with. A metric is either
// end-to-end (gated by the driver on every workload), workload-specific
// (what a user of that one workload sees; reported untraced, compared by
// `compare`, listed under per_layer in BENCHMARK.json because the
// builder's contract wants every end_to_end metric on every workload) or
// per-layer (the outside-in ladder of the ledger pass).

const (
	wServeWarm = "serve_warm"
	wInferCold = "infer_cold"
	wTierChain = "tier_chain"
	wLibClient = "lib_client"
)

type workloadDef struct {
	Name string
	Why  string
}

// lib_client comes first: its rss_mb is the benchmark process's own peak
// RSS, which must not include what the daemon workloads' clients allocated.
var workloadDefs = []workloadDef{
	{wLibClient, "in-process placements and DAG mappings on five inferred topologies: what a linked application pays after inference; HTTP, registry and inference do nothing here"},
	{wServeWarm, "one mctopd, 210 primed keys all in the LRU: time is HTTP + handler + JSON + registry hit, so serving-path work shows and inference/tier work must show nothing"},
	{wInferCold, "never-repeated seeds on one spooling mctopd: simulator forks + MCTOP-ALG + plugins are over 99% of each request, HTTP under 1%, and every op is a put through LRU and spool"},
	{wTierChain, "660 keys against an edge LRU of 64: every op is a remote fetch + spool write (fresh edge) or a spool read (restarted edge), the store chain used the other three ways"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the regression bound as a share of the parent's median;
	// 0 for per-layer metrics, which are never gated.
	Bound float64
	// Workloads lists where a workload-specific metric is reported; nil
	// for end-to-end metrics (every workload) and per-layer metrics (the
	// ledger pass).
	Workloads []string
	Layer     string
	// Moves is the prediction a later issue is held to: which end-to-end
	// or workload metric this one should move, on which workload. On every
	// workload not named the prediction is no change.
	Moves string
	What  string
}

// noisy is the bound of every gated metric: the contract's maximum. On the
// sizing VM (2 shared vCPUs) one commit's ten runs on ten seeds spread by
// 4-18% in a calm quarter of an hour and 10-29% in a disturbed one, far
// beyond what the issue's 10% allows, and a bound below the spread would
// reject the benchmark itself (README, "Bounds").
const noisy = 0.25

// endToEnd: reported by every workload, gated by the driver.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: noisy,
		What: "wall time from first daemon exec (first mctop.Infer for lib_client) to the first warm-up op: readiness wait, golden-fixture check and priming"},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: noisy,
		What: "peak RSS (VmHWM) of the process under test after the third measured round: the daemon, in tier_chain the restarted edge of each round, in lib_client the benchmark process itself"},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: noisy,
		What: "ops completed per second of op-loop wall time (requests for the daemon workloads, library calls for lib_client), closed loop"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: noisy,
		What: "p50 client-observed latency pooled over all ops of a round"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: noisy,
		What: "p95 client-observed latency pooled over all ops of a round (on infer_cold, six ops a round, this is the round's slowest cold inference)"},
}

// workloadMetrics: what a user of one workload sees; all timings.
var workloadMetrics = []metricDef{
	{Name: "topology_p50_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wServeWarm}, What: "GET /v1/topology (JSON) client latency, p50"},
	{Name: "place_p50_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wServeWarm}, What: "GET /v1/place client latency, p50"},
	{Name: "batch_p50_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wServeWarm}, What: "POST /v1/place/batch (8 items) client latency, p50"},
	{Name: "map_p50_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wServeWarm}, What: "POST /v1/map client latency, p50"},
	{Name: "warm_p95_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wServeWarm}, What: "p95 pooled over the round's requests (serve_warm's op_p95_ms under its permanent name)"},
	{Name: "cold_small_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wInferCold}, What: "median cold Ivy (40 contexts) request"},
	{Name: "cold_large_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wInferCold}, What: "median cold SPARC (256 contexts, exhaustive) request"},
	{Name: "cold_sampled_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wInferCold}, What: "median cold sampled gen:mesh:s16:c16:t2 (512 contexts) request"},
	{Name: "edge_fetch_p50_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wTierChain}, What: "p50 over phase A requests: first touch through a fresh edge to the origin"},
	{Name: "spool_read_p50_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wTierChain}, What: "p50 over phase B requests: restarted, origin-free edge serving from its spool"},
	{Name: "place_build_us", Unit: "us", Better: "lower", Bound: noisy, Workloads: []string{wLibClient}, What: "median mctop.NewAlloc + pin all + unpin all cycle"},
	{Name: "map_build_ms", Unit: "ms", Better: "lower", Bound: noisy, Workloads: []string{wLibClient}, What: "median taskmap.Map at refine 200"},
}

func layer(layer, moves string, defs ...metricDef) []metricDef {
	for i := range defs {
		defs[i].Layer, defs[i].Moves = layer, moves
		if defs[i].Better == "" {
			defs[i].Better = "lower"
		}
	}
	return defs
}

func m(name, unit, what string) metricDef { return metricDef{Name: name, Unit: unit, What: what} }

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// perLayer: the 80 metrics of the ledger pass, measured from outside
// through public functions and public endpoints; layer = module name.
var perLayer = concat(
	layer("topo", "place_build_us, map_build_ms on lib_client",
		m("topo.get_latency_ns", "ns", "Topology.GetLatency on SPARC, per call"),
		m("topo.max_latency_between_ns", "ns", "Topology.MaxLatencyBetween over 64 Westmere contexts"),
		m("topo.socket_order_ns", "ns", "Topology.SocketsByLatencyFrom on Westmere"),
		m("topo.contexts_by_latency_us", "us", "Topology.ContextsByLatencyFrom on SPARC"),
		m("topo.power_estimate_ns", "ns", "Topology.PowerEstimate over 20 Ivy contexts"),
		m("topo.index_build_us", "us", "first query on a freshly decoded SPARC topology (lazy index build)"),
	),
	layer("topo", "edge_fetch_p50_ms, spool_read_p50_ms on tier_chain",
		m("topo.encode_us", "us", "topo.Encode of the SPARC spec"),
		m("topo.decode_us", "us", "topo.Decode + topo.FromSpec of the SPARC description"),
		m("topo.desc_bytes", "count", "bytes of the SPARC description file (exact)"),
	),
	layer("sim", "cold_small_ms, cold_large_ms on infer_cold; setup_s on lib_client",
		m("sim.new_us", "us", "machine.NewSim(SPARC)"),
		m("sim.fork_us", "us", "SimMachine.ForkPair on SPARC"),
		m("sim.fork_allocs", "count", "heap allocations of one ForkPair (exact)"),
		m("sim.generate_ms", "ms", "sim.ByName(gen:mesh:s16:c16:t2): generate a 512-context platform"),
	),
	layer("mctopalg", "cold_small_ms, cold_large_ms, cold_sampled_ms on infer_cold",
		m("mctopalg.infer_small_ms", "ms", "mctopalg.InferContext on Ivy"),
		m("mctopalg.infer_large_ms", "ms", "mctopalg.InferContext on SPARC, exhaustive"),
		m("mctopalg.infer_sampled_ms", "ms", "mctopalg.InferContext on the 512-context gen platform, sampled"),
		m("mctopalg.pair_us", "us", "SPARC inference at Parallelism 1, wall time per measured pair"),
		m("mctopalg.allocs_small", "count", "heap allocations of one Ivy inference at Parallelism 1 (repeats to within a few: the runtime's own)"),
		m("mctopalg.allocs_large", "count", "heap allocations of one SPARC inference at Parallelism 1 (repeats to within a few: the runtime's own)"),
	),
	layer("mctopalg", "cold_sampled_ms on infer_cold; a host-speed change must leave sim_cycles identical",
		m("mctopalg.pairs_measured", "count", "Result.Pairs of the sampled 512-context inference (exact)"),
		metricDef{Name: "mctopalg.measured_ratio", Unit: "%", Better: "lower", What: "pairs measured / (N(N-1)/2) of the sampled inference: the useful-work ratio of sampled mode"},
		m("mctopalg.fallback_blocks", "count", "Result.FallbackBlocks of the sampled inference (exact)"),
		m("mctopalg.retries", "count", "Result.Retries of the SPARC inference (exact)"),
		m("mctopalg.sim_cycles", "count", "Result.Cycles of the SPARC inference: simulated cost, host-independent (exact)"),
	),
	layer("plugins", "cold_small_ms (fixed cost) on infer_cold",
		m("plugins.enrich_small_ms", "ms", "plugins.Enrich on Ivy"),
		m("plugins.enrich_large_ms", "ms", "plugins.Enrich on SPARC"),
		m("plugins.enrich_allocs", "count", "heap allocations of one Ivy enrichment (exact)"),
	),
	layer("mctop", "cold_small_ms on infer_cold; place_build_us on lib_client",
		m("mctop.infer_self_us", "us", "mctop.Infer(Ivy) minus its sim.new, mctopalg.infer and plugins.enrich children"),
		m("mctop.alloc_cycle_us", "us", "mctop.NewAlloc + pin all + unpin all, RR_CORE x 32 threads on Westmere"),
	),
	layer("place", "place_build_us on lib_client; report_us -> place_p50_ms on serve_warm; reconstruct_us -> tier_chain",
		m("place.build_seq_us", "us", "place.NewFrom SEQUENTIAL, 64 threads on Westmere"),
		m("place.build_con_us", "us", "place.NewFrom CON_CORE_HWC, 64 threads on Westmere"),
		m("place.build_balance_us", "us", "place.NewFrom BALANCE_CORE, 64 threads on Westmere"),
		m("place.build_rr_us", "us", "place.NewFrom RR_CORE, 64 threads on Westmere"),
		m("place.build_power_us", "us", "place.NewFrom POWER, 20 threads on Ivy"),
		m("place.build_allocs", "count", "heap allocations of one RR_CORE build (exact)"),
		m("place.pin_next_ns", "ns", "Placement.PinNext, per call"),
		m("place.report_us", "us", "Placement.String(), rendered on every /v1/place response"),
		m("place.reconstruct_us", "us", "place.Reconstruct: sidecar revival"),
	),
	layer("taskmap", "map_build_ms on lib_client; dag_hash_us -> map_p50_ms on serve_warm",
		m("taskmap.greedy_us", "us", "taskmap.Map at refine 0, 48-node DAG on Westmere"),
		m("taskmap.refine_ms", "ms", "taskmap.Map at refine 200, same DAG"),
		m("taskmap.estimate_ns", "ns", "taskmap.Estimate of one assignment"),
		m("graph.dag_hash_us", "us", "TaskDAG.Normalize + Hash, paid per /v1/map request, hit or not"),
	),
	layer("registry", "*_p50_ms, throughput_rps on serve_warm (expected share about 1%: the point of the ladder)",
		m("registry.topology_hit_ns", "ns", "Registry.LookupTopologyContext, LRU hit"),
		m("registry.place_hit_ns", "ns", "Registry.PlaceContext, LRU hit"),
		m("registry.map_hit_ns", "ns", "Registry.MapDAGContext, LRU hit"),
		m("registry.batch8_hit_us", "us", "Registry.PlaceBatchContext of 8 requests, all LRU hits"),
		m("registry.hit_allocs", "count", "heap allocations of one PlaceContext hit (exact)"),
	),
	layer("spool", "spool_read_p50_ms, setup_s on tier_chain; put_flush_ms -> infer_cold (no movement expected: <1%)",
		m("spool.open_scan_ms", "ms", "mctop.NewRegistry(1, WithSpoolDir) over the 660-entry spool"),
		m("spool.topology_read_us", "us", "LRU-missing topology lookup served by the spool"),
		m("spool.place_read_us", "us", "LRU-missing placement lookup served by the spool"),
		m("spool.map_read_us", "us", "LRU-missing mapping lookup served by the spool"),
		m("spool.put_flush_ms", "ms", "660 puts into an empty spool + Flush"),
		m("spool.bytes_total", "count", "bytes of the 660-entry spool directory (exact)"),
	),
	layer("remote", "edge_fetch_p50_ms on tier_chain",
		m("remote.topology_fetch_us", "us", "LRU-missing topology lookup served by the origin"),
		m("remote.place_fetch_us", "us", "LRU-missing placement lookup served by the origin"),
		m("remote.map_fetch_us", "us", "LRU-missing mapping lookup served by the origin"),
		m("remote.fetches_per_key", "count", "remote-tier gets per key looked up (a sidecar pulls its topology too)"),
	),
	layer("mctopd", "*_p50_ms, throughput_rps on serve_warm: the server/client split",
		m("mctopd.server_us.topology", "us", "mctopd_http_request_duration_seconds sum/count, /v1/topology"),
		m("mctopd.server_us.place", "us", "same, /v1/place"),
		m("mctopd.server_us.batch", "us", "same, /v1/place/batch"),
		m("mctopd.server_us.map", "us", "same, /v1/map"),
		m("mctopd.client_net_us", "us", "client p50 minus server mean, pooled over the four routes: loopback + net/http on both sides"),
		m("mctopd.resp_bytes.topology", "count", "mean normalised response bytes, /v1/topology (exact)"),
		m("mctopd.resp_bytes.place", "count", "same, /v1/place"),
		m("mctopd.resp_bytes.batch", "count", "same, /v1/place/batch"),
		m("mctopd.resp_bytes.map", "count", "same, /v1/map"),
	),
	layer("mctopd", "edge_fetch_p50_ms, setup_s on tier_chain; cold_*_ms on infer_cold",
		m("mctopd.export_us", "us", "GET /v1/export?key= at the warm origin, median over the 660 keys"),
		m("mctopd.metrics_scrape_ms", "ms", "GET /metrics on the serve_warm daemon"),
		m("mctopd.start_ready_ms", "ms", "exec to /readyz 200 on an empty spool (fresh edge)"),
		m("mctopd.restart_ready_ms", "ms", "exec to /readyz 200 on the 660-entry spool (restarted edge)"),
		m("mctopd.infer_server_ms", "ms", "mctopd_inference_duration_seconds mean on infer_cold"),
	),
	layer("mctopd", "proves each workload exercised the tier it claims",
		metricDef{Name: "mctopd.served_lru", Unit: "%", Better: "higher", What: "share of serve_warm measured requests served by the LRU"},
		metricDef{Name: "mctopd.served_spool", Unit: "%", Better: "higher", What: "share of tier_chain phase B requests served by the spool"},
		metricDef{Name: "mctopd.served_remote", Unit: "%", Better: "higher", What: "share of tier_chain phase A requests served by the remote tier"},
		metricDef{Name: "mctopd.served_computed", Unit: "%", Better: "higher", What: "share of infer_cold measured requests that were computed"},
	),
	layer("trace", "*_p50_ms on serve_warm: the telemetry cost as a ledger row",
		m("trace.overhead_pct", "%", "traced serve_warm p50 / untraced p50 - 1, daemon at -trace-sample 1"),
		m("mctopd.span.registry_lookup_us", "us", "mean registry.lookup span on the traced serve_warm daemon"),
		m("mctopd.span.spool_read_us", "us", "mean spool.read span on the traced restarted edge"),
		m("mctopd.span.remote_fetch_us", "us", "mean remote.fetch span on the traced fresh edge"),
		m("mctopd.span.registry_infer_ms", "ms", "mean registry.infer span on the traced infer_cold daemon"),
	),
)

// metricsOf lists the untraced metrics one workload reports: every
// end-to-end metric plus the workload-specific ones that name it.
func metricsOf(workload string) []metricDef {
	out := append([]metricDef(nil), endToEnd...)
	for _, d := range workloadMetrics {
		for _, w := range d.Workloads {
			if w == workload {
				out = append(out, d)
			}
		}
	}
	return out
}

// ledgerMetrics is what a `-trace 1` run reports: the workload-specific
// metrics (from untraced rounds) and the per-layer ladder.
func ledgerMetrics() []metricDef { return concat(workloadMetrics, perLayer) }
