package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// scale sizes the four workloads. The shapes (which keys, which mix, which
// caches) are the issue's and never change between scales; `smoke` only
// shrinks counts so the test finishes in seconds.
type scale struct {
	name string
	// serve_warm: platforms x seeds topologies, 18 placements and 2
	// mappings each; reps 0 = the daemon's default.
	warmPlatforms []string
	warmSeeds     []uint64
	warmReps      int
	warmRoundOps  int // a multiple of 4: equal route mix
	// infer_cold: coldSmall x Ivy + 1 x SPARC + 1 x sampled gen per round.
	coldReps  int
	coldSmall int
	// tier_chain: platforms x tierSeeds topologies at reps 51, 8 placements
	// and 2 mappings each, against an edge LRU of tierEdgeCache.
	tierSeeds     int
	tierEdgeCache int
	// lib_client: passes over the op list per round.
	libPasses int
	// ladderReps is the repetitions per pair of the ladder's inferences.
	ladderReps int
	// At least minRounds measured rounds, at most maxRounds (0 = as many
	// as -seconds allows).
	minRounds, maxRounds int
	// setupRepeats is how often infer_cold and lib_client, whose set-up is
	// short and therefore noisy, set up; setup_s is the median.
	setupRepeats int
}

var scales = map[string]scale{
	"full": {
		name:          "full",
		warmPlatforms: goldenPlatforms(), warmSeeds: []uint64{1, 2}, warmRoundOps: 1000,
		coldSmall: 4,
		tierSeeds: 12, tierEdgeCache: 64,
		libPasses:  50,
		ladderReps: 201,
		minRounds:  3, setupRepeats: 5,
	},
	"smoke": {
		name:          "smoke",
		warmPlatforms: goldenPlatforms(), warmSeeds: []uint64{1}, warmReps: 51, warmRoundOps: 200,
		coldReps: 51, coldSmall: 2,
		tierSeeds: 1, tierEdgeCache: 8,
		libPasses:  1,
		ladderReps: 51,
		minRounds:  1, maxRounds: 1, setupRepeats: 1,
	},
}

// runCfg is one workload run's settings.
type runCfg struct {
	seed    uint64
	seconds float64 // measuring budget; rounds repeat until it is spent
	sc      scale
	clients int
	// traced runs the daemons at -trace-sample 1 and records client spans.
	traced bool
	// rec receives spans; nil outside the ledger pass. An untraced run with
	// a recorder also measures the ladder rungs that need its daemons.
	rec *recorder
}

func (c runCfg) clientRec() *recorder {
	if c.traced {
		return c.rec
	}
	return nil
}

func (c runCfg) daemonArgs(args ...string) []string {
	if c.traced {
		args = append(args, "-trace-sample", "1")
	}
	return args
}

// metricValue is one metric of one workload run: the median over measured
// rounds of the round's statistic, with the rounds themselves.
type metricValue struct {
	Name     string    `json:"name"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	BoundPct float64   `json:"bound_pct"`
	Value    float64   `json:"value"`
	Spread   float64   `json:"spread"` // (q3-q1)/median over rounds
	Rounds   []float64 `json:"rounds"`
	Samples  int       `json:"samples"` // latency samples behind one round's value
}

type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"output_digest"`
	Unstable  bool               `json:"unstable"`
	SpinMs    [2]float64         `json:"spin_ms"` // before, after
	Load1     float64            `json:"load1"`
	StealPct  float64            `json:"steal_pct"`
	Metrics   []metricValue      `json:"metrics"`
	Diag      map[string]float64 `json:"diagnostics"` // printed, never gated
	Errors    []string           `json:"errors,omitempty"`

	// ledger holds the per-layer metrics this run could measure from its
	// own daemons (server/client split, tier shares, span means, ...).
	ledger map[string]float64
	series *series
}

func newResult(name string) *workloadResult {
	res := &workloadResult{Name: name, Diag: map[string]float64{}, ledger: map[string]float64{}, series: newSeries()}
	for _, w := range workloadDefs {
		if w.Name == name {
			res.Why = w.Why
		}
	}
	return res
}

func (res *workloadResult) metric(name string) (metricValue, bool) {
	for _, m := range res.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// count books a round's ops; failures keep their first few reasons.
func (res *workloadResult) count(rr roundResult) {
	res.Attempted += len(rr.latNs)
	res.Failed += rr.failed
	for _, err := range rr.errs {
		if len(res.Errors) < 10 {
			res.Errors = append(res.Errors, err.Error())
		}
	}
}

// finish turns the per-round series into the workload's metric list, in
// dictionary order, and fails if the workload did not report exactly the
// metrics the dictionary lists for it.
func (res *workloadResult) finish() error {
	for _, def := range metricsOf(res.Name) {
		rounds, ok := res.series.values[def.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Name, def.Name)
		}
		res.Metrics = append(res.Metrics, metricValue{
			Name: def.Name, Unit: def.Unit, Better: def.Better, BoundPct: 100 * def.Bound,
			Value: median(rounds), Spread: spread(rounds), Rounds: rounds, Samples: res.series.samples[def.Name],
		})
	}
	if len(res.series.values) != len(res.Metrics) {
		return fmt.Errorf("%s: measured %d metrics, the dictionary lists %d", res.Name, len(res.series.values), len(res.Metrics))
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed: %s", res.Name, res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
	}
	return nil
}

// digestOf is the output digest of one round: SHA-256 over the normalised
// answers' hashes in op order.
func digestOf(sums [][sha256.Size]byte) string {
	h := sha256.New()
	for i := range sums {
		h.Write(sums[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// warmedUp ends a warm-up round: nothing is counted, but a failure there
// means the measured rounds would fail too.
func (res *workloadResult) warmedUp(rr roundResult) error {
	if rr.failed > 0 {
		return fmt.Errorf("%s warm-up: %d ops failed: %v", res.Name, rr.failed, rr.errs[0])
	}
	return nil
}

// rssRounds: peak RSS is read after this many measured rounds (the last
// one, if fewer ran), so it covers the same work whatever -seconds is.
const rssRounds = 3

// measure runs one discarded warm-up round, then measured rounds until the
// budget is spent: at least sc.minRounds, and another only while half of it
// still fits. round gets -1 for the warm-up. rssOf, when given, reads the
// peak RSS of the process under test for rss_mb.
func (res *workloadResult) measure(c runCfg, rssOf func() (float64, error), round func(n int) error) error {
	if err := round(-1); err != nil {
		return err
	}
	var rss float64
	start := time.Now()
	for {
		if err := round(res.Rounds); err != nil {
			return err
		}
		res.Rounds++
		if rssOf != nil && res.Rounds <= rssRounds {
			var err error
			if rss, err = rssOf(); err != nil {
				return err
			}
		}
		elapsed := time.Since(start).Seconds()
		if res.Rounds == c.sc.maxRounds || res.Rounds >= c.sc.minRounds && elapsed+elapsed/float64(res.Rounds)/2 > c.seconds {
			if rssOf != nil {
				res.series.add("rss_mb", rss, 1)
			}
			return nil
		}
	}
}

// latencies adds the pooled generic metrics of one round's samples.
func (res *workloadResult) latencies(latNs []int64, ops int, wall time.Duration) {
	ms := nsToMs(okSamples(latNs))
	res.series.add("op_p50_ms", percentile(ms, 50), len(ms))
	res.series.add("op_p95_ms", percentile(ms, 95), len(ms))
	res.series.add("throughput_rps", float64(ops)/wall.Seconds(), ops)
	res.Diag["p99_ms"] = percentile(ms, 99)
	res.Diag["max_ms"] = percentile(ms, 100)
	res.Diag["samples_per_round"] = float64(len(ms))
}

// okSamples drops the zero entries failed ops leave behind.
func okSamples(latNs []int64) []int64 {
	out := make([]int64, 0, len(latNs))
	for _, v := range latNs {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}

// byClass splits a round's latencies by the class of each op.
func byClass(latNs []int64, classOf func(op int) int, n int) [][]int64 {
	out := make([][]int64, n)
	for i, v := range latNs {
		if v > 0 {
			c := classOf(i)
			out[c] = append(out[c], v)
		}
	}
	return out
}

func p50Ms(latNs []int64) float64 { return percentile(nsToMs(latNs), 50) }

// checkGoldens: the five golden platforms at seed 42, reps 51 must be served
// byte for byte as the committed description files.
func checkGoldens(root string, d *daemon) error {
	for _, p := range goldenPlatforms() {
		q := url.Values{"platform": {p}, "seed": {"42"}, "reps": {"51"}, "format": {"mctop"}}
		got, err := fetch(d.url + "/v1/topology?" + q.Encode())
		if err != nil {
			return err
		}
		want, err := os.ReadFile(goldenPath(root, p))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s serves %s (seed 42, reps 51) differently from %s", d.name, p, goldenPath(root, p))
		}
	}
	return nil
}

// prime asks for every target once, in order: the daemon computes and
// caches it, the benchmark checks its structure and remembers the answer.
func prime(clients []*client, d *daemon, targets []target, ans *answers) error {
	all := make([]int, len(targets))
	for i := range all {
		all[i] = i
	}
	if rr := runOps(clients, d.url, targets, all, ans, nil); rr.failed > 0 {
		return fmt.Errorf("priming %s: %d of %d requests failed: %v", d.name, rr.failed, len(all), rr.errs[0])
	}
	return nil
}

// expect fails the run when a workload did not exercise the tier it claims.
func expect(what string, got, want float64) error {
	if got != want {
		return fmt.Errorf("tier attribution: %s = %v, want %v", what, got, want)
	}
	return nil
}

func expectAtLeast(what string, got, want float64) error {
	if got < want {
		return fmt.Errorf("tier attribution: %s = %v, want at least %v", what, got, want)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

const (
	warmTimeout = 30 * time.Second
	coldTimeout = 300 * time.Second
)

// --- serve_warm -----------------------------------------------------------

func serveWarm(e *env, c runCfg) (*workloadResult, error) {
	res := newResult(wServeWarm)
	r := newRNG(c.seed, wServeWarm)
	dags := genDAGs(r, 8)
	keys, err := genKeys(r, c.sc.warmPlatforms, c.sc.warmSeeds, c.sc.warmReps, 6, 3, 2, dags)
	if err != nil {
		return nil, err
	}
	// Targets: one per key, then 4 batches of 8 per topology drawn from its
	// own 18 placements, so a batch touches only primed entries.
	var (
		targets []target
		byRoute [numClasses][]int
	)
	add := func(t target) {
		byRoute[t.class] = append(byRoute[t.class], len(targets))
		targets = append(targets, t)
	}
	for i := 0; i < len(keys); {
		j := i + 1
		var placements []keySpec
		for ; j < len(keys) && keys[j].Kind != kindTopology; j++ {
			if keys[j].Kind == kindPlacement {
				placements = append(placements, keys[j])
			}
		}
		for _, k := range keys[i:j] {
			add(targetOf(k))
		}
		for b := 0; b < 4; b++ {
			items := make([]keySpec, 8)
			for n, pi := range r.perm(len(placements))[:8] {
				items[n] = placements[pi]
			}
			add(batchTarget(items))
		}
		i = j
	}
	// The round: equal mix, routes interleaved, the same list every round.
	// Each route cycles through fresh shuffles of its targets, so every
	// target is asked for equally often whatever the seed.
	ops := make([]int, c.sc.warmRoundOps)
	var cycle [numClasses][]int
	for i := range ops {
		class := i % numClasses
		if len(cycle[class]) == 0 {
			cycle[class] = r.perm(len(byRoute[class]))
		}
		ops[i] = byRoute[class][cycle[class][0]]
		cycle[class] = cycle[class][1:]
	}
	classOf := func(op int) int { return targets[ops[op]].class }

	clients := newClients(c.clients, warmTimeout)
	defer closeClients(clients)
	ans := newAnswers(len(targets))

	setup := time.Now()
	// -cache 1024, not the default 256: the LRU splits its bound over 8
	// shards, so 215 resident keys overflow a 32-entry shard on most seeds
	// and the workload would measure evictions, not hits (see README).
	d, err := e.start(wServeWarm, c.daemonArgs("-cache", "1024")...)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if err := firstErr(checkGoldens(e.root, d), prime(clients, d, targets, ans)); err != nil {
		return nil, err
	}
	res.series.add("setup_s", time.Since(setup).Seconds(), 1)

	var (
		before   scrape
		respSize [numClasses]float64
	)
	err = res.measure(c, d.rssMB, func(n int) error {
		if n == 0 {
			if before, err = d.scrape(); err != nil {
				return err
			}
		}
		rr := runOps(clients, d.url, targets, ops, ans, c.clientRec())
		if n < 0 {
			return res.warmedUp(rr)
		}
		res.count(rr)
		if n == 0 {
			res.Digest = digestOf(rr.sums)
			for i, size := range rr.bytes {
				respSize[classOf(i)] += float64(size) / float64(len(ops)/numClasses)
			}
		}
		res.latencies(rr.latNs, len(ops), rr.wall)
		per := byClass(rr.latNs, classOf, numClasses)
		for class, name := range classNames {
			res.series.add(name+"_p50_ms", p50Ms(per[class]), len(per[class]))
		}
		res.series.add("warm_p95_ms", res.series.last("op_p95_ms"), len(ops))
		return nil
	})
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}

	// Tier attribution: every measured request an LRU hit, nothing computed.
	sent := float64(res.Rounds * len(ops))
	if err := firstErr(
		expect("serve_warm requests served by the LRU", servedDelta(before, after, "lru"), sent),
		expect("serve_warm inferences", delta(before, after, "mctopd_registry_inferences_total"), 0),
		expect("serve_warm placements computed", delta(before, after, "mctopd_registry_placements_total"), 0),
		expect("serve_warm mappings computed", delta(before, after, "mctopd_registry_mappings_total"), 0),
	); err != nil {
		return nil, err
	}
	res.ledger["mctopd.served_lru"] = 100 * servedDelta(before, after, "lru") / sent

	// The server/client split: the daemon's own per-route histogram against
	// what the client saw.
	var serverSum, serverCount float64
	for class, route := range [numClasses]string{"/v1/topology", "/v1/place", "/v1/place/batch", "/v1/map"} {
		label := `{route="` + route + `"}`
		sum := delta(before, after, "mctopd_http_request_duration_seconds_sum"+label)
		count := delta(before, after, "mctopd_http_request_duration_seconds_count"+label)
		if count == 0 {
			return nil, fmt.Errorf("serve_warm: the daemon's histogram counted no %s request", route)
		}
		serverSum, serverCount = serverSum+sum, serverCount+count
		res.ledger["mctopd.server_us."+classNames[class]] = 1e6 * sum / count
		res.ledger["mctopd.resp_bytes."+classNames[class]] = respSize[class]
	}
	res.ledger["mctopd.client_net_us"] = 1e3*median(res.series.values["op_p50_ms"]) - 1e6*serverSum/serverCount
	scrapes := make([]float64, 15)
	for i := range scrapes {
		start := time.Now()
		if _, err := d.scrape(); err != nil {
			return nil, err
		}
		scrapes[i] = float64(time.Since(start)) / 1e6
	}
	res.ledger["mctopd.metrics_scrape_ms"] = median(scrapes)
	if c.traced {
		spans, err := d.spanMeans()
		if err != nil {
			return nil, err
		}
		res.ledger["mctopd.span.registry_lookup_us"] = spans["registry.lookup"] / 1e3
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	return res, res.finish()
}

// --- infer_cold -------------------------------------------------------------

const (
	coldSmall = iota
	coldLarge
	coldSampled
	numCold
)

func inferCold(e *env, c runCfg) (*workloadResult, error) {
	res := newResult(wInferCold)
	r := newRNG(c.seed, wInferCold)
	clients := newClients(c.clients, coldTimeout)
	defer closeClients(clients)

	// Set-up is half a second here, so it runs sc.setupRepeats times, each
	// on a fresh spool, and setup_s is the median; the last daemon stays.
	var (
		d     *daemon
		spool string
		err   error
	)
	for i := 0; i < c.sc.setupRepeats; i++ {
		if spool, err = e.mkdir("cold-spool"); err != nil {
			return nil, err
		}
		setup := time.Now()
		if d, err = e.start(wInferCold, c.daemonArgs("-spool-dir", spool)...); err != nil {
			return nil, err
		}
		defer d.kill()
		if err := checkGoldens(e.root, d); err != nil {
			return nil, err
		}
		res.series.add("setup_s", time.Since(setup).Seconds(), 1)
		if i < c.sc.setupRepeats-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}

	// Seeds never repeat: within the run by the counter, across -seed
	// values by the base.
	nextSeed := c.seed * 1_000_000
	requested := len(goldenPlatforms())
	var before scrape
	err = res.measure(c, d.rssMB, func(n int) error {
		// This round's requests, materialised before its clock starts.
		mix := make([]int, c.sc.coldSmall, c.sc.coldSmall+2) // coldSmall x n
		mix = append(mix, coldLarge, coldSampled)
		kinds, targets, ops := make([]int, len(mix)), make([]target, len(mix)), make([]int, len(mix))
		for i, mi := range r.perm(len(mix)) {
			nextSeed++
			k := keySpec{Kind: kindTopology, Platform: smallPlatform, Seed: nextSeed, Reps: c.sc.coldReps}
			switch mix[mi] {
			case coldLarge:
				k.Platform = largePlatform
			case coldSampled:
				k.Platform, k.Sampling = sampledPlatform, true
			}
			kinds[i], targets[i], ops[i] = mix[mi], targetOf(k), i
		}
		classOf := func(op int) int { return kinds[op] }
		if n == 0 {
			if before, err = d.scrape(); err != nil {
				return err
			}
		}
		rr := runOps(clients, d.url, targets, ops, newAnswers(len(targets)), c.clientRec())
		requested += len(ops)
		if n < 0 {
			return res.warmedUp(rr)
		}
		res.count(rr)
		if n == 0 {
			res.Digest = digestOf(rr.sums)
		}
		res.latencies(rr.latNs, len(ops), rr.wall)
		per := byClass(rr.latNs, classOf, numCold)
		res.series.add("cold_small_ms", p50Ms(per[coldSmall]), len(per[coldSmall]))
		res.series.add("cold_large_ms", p50Ms(per[coldLarge]), len(per[coldLarge]))
		res.series.add("cold_sampled_ms", p50Ms(per[coldSampled]), len(per[coldSampled]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}

	sent := float64(res.Attempted)
	if err := firstErr(
		expect("infer_cold requests computed", servedDelta(before, after, "computed"), sent),
		expect("infer_cold inferences", delta(before, after, "mctopd_registry_inferences_total"), sent),
		expect("infer_cold store errors", sumDelta(scrape{}, after, "mctopd_store_errors_total"), 0),
	); err != nil {
		return nil, err
	}
	res.ledger["mctopd.served_computed"] = 100 * servedDelta(before, after, "computed") / sent
	res.ledger["mctopd.infer_server_ms"] = 1e3 * delta(before, after, "mctopd_inference_duration_seconds_sum") /
		delta(before, after, "mctopd_inference_duration_seconds_count")
	if c.traced {
		spans, err := d.spanMeans()
		if err != nil {
			return nil, err
		}
		res.ledger["mctopd.span.registry_infer_ms"] = spans["registry.infer"] / 1e6
	}
	// SIGTERM drains and flushes: every key ever requested must be on disk,
	// once.
	if err := d.stop(); err != nil {
		return nil, err
	}
	entries, err := scanSpool(spool)
	if err != nil {
		return nil, err
	}
	if err := expect("infer_cold .mctop files after the drain", float64(len(entries)), float64(requested)); err != nil {
		return nil, err
	}
	return res, res.finish()
}

// --- tier_chain -------------------------------------------------------------

// edgeRun is one phase of a tier_chain round: what one edge daemon, started
// for the phase and stopped (SIGTERM: drain + flush) after it, did with ops.
type edgeRun struct {
	roundResult
	before, after scrape
	readyMs       float64 // exec to /readyz 200
	rssMB         float64
	spanUs        float64 // traced runs: mean duration of the named daemon span
}

func (r *edgeRun) delta(key string) float64   { return delta(r.before, r.after, key) }
func (r *edgeRun) served(tier string) float64 { return servedDelta(r.before, r.after, tier) }

func edgePhase(e *env, c runCfg, clients []*client, targets []target, ops []int, ans *answers, span string, args ...string) (*edgeRun, error) {
	edge, err := e.start("edge", c.daemonArgs(args...)...)
	if err != nil {
		return nil, err
	}
	defer edge.kill()
	run := &edgeRun{readyMs: float64(edge.readyIn) / 1e6}
	if run.before, err = edge.scrape(); err != nil {
		return nil, err
	}
	run.roundResult = runOps(clients, edge.url, targets, ops, ans, c.clientRec())
	if run.after, err = edge.scrape(); err != nil {
		return nil, err
	}
	if run.rssMB, err = edge.rssMB(); err != nil {
		return nil, err
	}
	if c.traced {
		spans, err := edge.spanMeans()
		if err != nil {
			return nil, err
		}
		run.spanUs = spans[span] / 1e3
	}
	return run, edge.stop()
}

func tierChain(e *env, c runCfg) (*workloadResult, error) {
	res := newResult(wTierChain)
	r := newRNG(c.seed, wTierChain)
	dags := genDAGs(r, 8)
	seeds := make([]uint64, c.sc.tierSeeds)
	for i := range seeds {
		seeds[i] = c.seed*1000 + uint64(i) + 1
	}
	keys, err := genKeys(r, goldenPlatforms(), seeds, 51, 4, 2, 2, dags)
	if err != nil {
		return nil, err
	}
	targets := make([]target, len(keys))
	for i, k := range keys {
		targets[i] = targetOf(k)
	}
	topologies := len(goldenPlatforms()) * len(seeds)
	order := r.perm(len(keys))
	twice := append(append([]int(nil), order...), order...)
	edgeCache := fmt.Sprint(c.sc.tierEdgeCache)

	clients := newClients(c.clients, warmTimeout)
	defer closeClients(clients)
	ans := newAnswers(len(targets))
	originSpool, err := e.mkdir("origin-spool")
	if err != nil {
		return nil, err
	}

	setup := time.Now()
	origin, err := e.start("origin", c.daemonArgs("-spool-dir", originSpool, "-cache", "1024")...)
	if err != nil {
		return nil, err
	}
	defer origin.kill()
	if err := firstErr(checkGoldens(e.root, origin), prime(clients, origin, targets, ans)); err != nil {
		return nil, err
	}
	res.series.add("setup_s", time.Since(setup).Seconds(), 1)

	var (
		keptSpool             string // the warm-up round's edge spool: exactly the working set, flushed
		starts, restarts      []float64
		spanRemote, spanSpool []float64
	)
	err = res.measure(c, nil, func(n int) error {
		spool, err := e.mkdir("edge-spool")
		if err != nil {
			return err
		}
		if n < 0 {
			keptSpool = spool
		} else {
			defer os.RemoveAll(spool)
		}
		// Phase A: a fresh edge; every key is LRU miss -> spool miss ->
		// remote fetch -> spool write. Then SIGTERM: drain + flush.
		a, err := edgePhase(e, c, clients, targets, order, ans, "remote.fetch",
			"-upstream", origin.url, "-spool-dir", spool, "-cache", edgeCache)
		if err != nil {
			return err
		}
		// Phase B: the edge restarted on that spool, without an origin; two
		// passes, every op LRU miss -> spool read.
		b, err := edgePhase(e, c, clients, targets, twice, ans, "spool.read", "-spool-dir", spool, "-cache", edgeCache)
		if err != nil {
			return err
		}
		if failed := a.failed + b.failed; failed > 0 {
			if n < 0 {
				return fmt.Errorf("%s warm-up: %d ops failed: %v", res.Name, failed, append(a.errs, b.errs...)[0])
			}
		} else if err := firstErr(
			// A fetched sidecar spools its topology alongside, so a topology
			// asked for after one of its placements may already be on the
			// edge's disk: remote + spool is every op, remote at least every
			// placement and mapping.
			expect("tier_chain phase A requests served by the remote tier or the spool it fills",
				a.served("remote")+a.served("spool"), float64(len(order))),
			expectAtLeast("tier_chain phase A requests served by the remote tier", a.served("remote"), float64(len(order)-topologies)),
			expect("tier_chain phase A edge inferences", a.delta("mctopd_registry_inferences_total"), 0),
			expect("tier_chain phase A edge placements computed", a.delta("mctopd_registry_placements_total"), 0),
			expect("tier_chain phase A edge mappings computed", a.delta("mctopd_registry_mappings_total"), 0),
			expect("tier_chain phase B requests served by the spool", b.served("spool"), float64(len(twice))),
			expect("tier_chain phase B inferences", b.delta("mctopd_registry_inferences_total"), 0),
			expect("tier_chain phase B quarantined files", b.after["mctopd_spool_quarantined_files"], 0),
		); err != nil {
			return err
		}
		if n < 0 {
			return nil
		}
		res.count(a.roundResult)
		res.count(b.roundResult)
		if n == 0 {
			res.Digest = digestOf(append(a.sums, b.sums...))
		}
		res.latencies(append(append([]int64(nil), a.latNs...), b.latNs...), len(order)+len(twice), a.wall+b.wall)
		res.series.add("edge_fetch_p50_ms", p50Ms(okSamples(a.latNs)), len(a.latNs))
		res.series.add("spool_read_p50_ms", p50Ms(okSamples(b.latNs)), len(b.latNs))
		res.series.add("rss_mb", b.rssMB, 1)
		starts, restarts = append(starts, a.readyMs), append(restarts, b.readyMs)
		spanRemote, spanSpool = append(spanRemote, a.spanUs), append(spanSpool, b.spanUs)
		res.ledger["mctopd.served_remote"] = 100 * a.served("remote") / float64(len(order))
		res.ledger["mctopd.served_spool"] = 100 * b.served("spool") / float64(len(twice))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.ledger["mctopd.start_ready_ms"] = median(starts)
	res.ledger["mctopd.restart_ready_ms"] = median(restarts)
	res.Diag["edge_start_ready_ms"] = median(starts)
	res.Diag["edge_restart_ready_ms"] = median(restarts)
	if c.traced {
		res.ledger["mctopd.span.remote_fetch_us"] = median(spanRemote)
		res.ledger["mctopd.span.spool_read_us"] = median(spanSpool)
	}

	// The rungs that need this workload's origin and its 660-entry spool.
	if c.rec != nil && !c.traced {
		entries, err := scanSpool(keptSpool)
		if err != nil {
			return nil, err
		}
		exports := make([]float64, len(entries))
		for i, entry := range entries {
			start := time.Now()
			if _, err := fetch(origin.url + "/v1/export?key=" + url.QueryEscape(entry.key)); err != nil {
				return nil, err
			}
			exports[i] = float64(time.Since(start)) / 1e3
		}
		res.ledger["mctopd.export_us"] = median(exports)
		tiers, err := ladderTiers(c.rec, e.tmp, keptSpool, origin.url, keys, order)
		if err != nil {
			return nil, err
		}
		for name, v := range tiers {
			res.ledger[name] = v
		}
	}
	if err := origin.stop(); err != nil {
		return nil, err
	}
	return res, res.finish()
}

// --- lib_client -------------------------------------------------------------

func libClient(e *env, c runCfg) (*workloadResult, error) {
	res := newResult(wLibClient)
	ctx := context.Background()
	dags := genDAGs(newRNG(c.seed, wLibClient), 8)

	// Set-up is under half a second here, so it runs sc.setupRepeats times
	// and setup_s is the median (the first, on a cold process, is the slow
	// one).
	var ops []libOp
	for i := 0; i < c.sc.setupRepeats; i++ {
		setup := time.Now()
		tops, err := libSetup(ctx, e.root)
		if err != nil {
			return nil, err
		}
		if ops, err = libOps(ctx, tops, dags); err != nil {
			return nil, err
		}
		res.series.add("setup_s", time.Since(setup).Seconds(), 1)
	}

	var err error
	first := make([][]int, len(ops))
	ownRSS := func() (float64, error) { return peakRSSMB(os.Getpid()) }
	err = res.measure(c, ownRSS, func(n int) error {
		passes := c.sc.libPasses
		if n < 0 {
			passes = 1
		}
		latNs := make([]int64, 0, passes*len(ops))
		var (
			failed int
			errs   []error
			sums   = make([][sha256.Size]byte, 0, len(ops))
		)
		start := time.Now()
		for p := 0; p < passes; p++ {
			for i := range ops {
				op := &ops[i]
				t := time.Now()
				got, err := op.run()
				lat := time.Since(t)
				if err == nil {
					if first[i] == nil {
						if err = op.check(got); err == nil {
							first[i] = got
						}
					} else if !slices.Equal(got, first[i]) {
						err = fmt.Errorf("answer differs from the first one")
					}
				}
				if err != nil {
					failed++
					errs = append(errs, fmt.Errorf("%s: %w", op.name, err))
					lat = 0
				}
				latNs = append(latNs, int64(lat))
				if n == 0 && p == 0 {
					sums = append(sums, sha256.Sum256([]byte(fmt.Sprint(got))))
				}
			}
		}
		wall := time.Since(start)
		if n < 0 {
			if failed > 0 {
				return fmt.Errorf("%s warm-up: %d ops failed: %v", res.Name, failed, errs[0])
			}
			return nil
		}
		res.count(roundResult{latNs: latNs, failed: failed, errs: errs[:min(len(errs), 5)]})
		if n == 0 {
			res.Digest = digestOf(sums)
		}
		res.latencies(latNs, len(latNs), wall)
		per := byClass(latNs, func(i int) int { return ops[i%len(ops)].class }, 3)
		res.series.add("place_build_us", 1e3*p50Ms(per[libPlace]), len(per[libPlace]))
		res.series.add("map_build_ms", p50Ms(per[libMapRefine]), len(per[libMapRefine]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, res.finish()
}

// check is the structural check of a library call's first answer.
func (op *libOp) check(got []int) error {
	switch {
	case op.class != libPlace:
		// assignment..., cost
		if len(got) != op.want+1 || got[op.want] <= 0 {
			return fmt.Errorf("mapping has %d entries for %d tasks", len(got)-1, op.want)
		}
		for task, c := range got[:op.want] {
			if c < 0 || c >= op.contexts {
				return fmt.Errorf("task %d assigned to context %d of %d", task, c, op.contexts)
			}
		}
	case op.none:
		for _, c := range got {
			if c != -1 {
				return fmt.Errorf("policy NONE pinned context %d", c)
			}
		}
	default:
		// RR_SCALE may hand out fewer contexts than asked, never more.
		if len(got) == 0 || len(got) > op.want {
			return fmt.Errorf("%d contexts for %d threads", len(got), op.want)
		}
		return distinctInRange(got, len(got), op.contexts)
	}
	return nil
}

var workloadFuncs = map[string]func(*env, runCfg) (*workloadResult, error){
	wServeWarm: serveWarm,
	wInferCold: inferCold,
	wTierChain: tierChain,
	wLibClient: libClient,
}

// keepLogs copies the run's daemon logs next to the temp dir so they
// survive its removal when a workload fails.
func keepLogs(e *env) string {
	dst := filepath.Join(filepath.Dir(e.tmp), "failed-"+filepath.Base(e.tmp))
	logs, _ := filepath.Glob(filepath.Join(e.tmp, "*.log"))
	if len(logs) == 0 || os.MkdirAll(dst, 0o755) != nil {
		return ""
	}
	for _, l := range logs {
		if b, err := os.ReadFile(l); err == nil {
			os.WriteFile(filepath.Join(dst, filepath.Base(l)), b, 0o644)
		}
	}
	return dst
}
