// Package mctopalg implements MCTOP-ALG, the topology-inference algorithm
// of the MCTOP paper (Section 3).
//
// MCTOP-ALG infers the topology of a cache-coherent machine from nothing
// but communication-latency measurements, exploiting two observations:
// cache-coherence protocols are deterministic in the absence of contention,
// and communication latencies characterize the topology. It needs only
// three things from the OS — the number of hardware contexts, the number of
// memory nodes, and thread pinning — which is exactly the machine.Machine
// interface this package is written against. The same code infers simulated
// platforms (internal/sim) and, best-effort, the real host.
//
// The four steps (Figure 6):
//
//  1. collect a context-to-context latency table with two lock-step
//     threads (Figure 5);
//  2. cluster the values (the CDF's plateaus) and normalize the table;
//  3. recursively group contexts into components per latency level;
//  4. assign roles (cores, sockets, cross-socket levels) to components.
//
// Section 3.5 fixes the algorithm's parameters, and so does this package:
// the stability rule, the clustering gaps and the sampled mode's sizes are
// constants. Options carries only what callers vary — the repetition
// count, the worker pool and the sampled mode.
package mctopalg

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The parameters of Section 3.5. Every topology key records them
// (registry.TopoKey), so changing one would move every cache entry.
const (
	// defaultReps is the paper's n, the repetitions per context pair.
	defaultReps = 2000
	// A pair's median is accepted at a stdev of stdevAccept of it; each
	// re-measurement widens that a maxRetries-th of the way to stdevMax,
	// and the last one is accepted whatever its stdev.
	stdevAccept = 0.07
	stdevMax    = 0.14
	maxRetries  = 3
)

// clusterGaps are step 2's cluster boundaries: a relative gap of 4 % and
// an absolute gap of 10 cycles.
var clusterGaps = stats.ClusterOptions{RelGap: 0.04, AbsGap: 10}

// Options tunes the inference. The zero value runs the paper's
// configuration.
type Options struct {
	// Reps is the number of repetitions per context pair (0 = the paper's
	// n = 2000).
	Reps int
	// Parallelism bounds the worker pool of the measurement phase on
	// machines implementing machine.Forker (0 = GOMAXPROCS, 1 = one
	// worker). The inferred topology is byte-identical for every value:
	// each pair is measured on its own fork whose noise stream depends
	// only on (seed, x, y), and results merge in canonical pair order.
	// Any other machine is measured with one worker, because its
	// measurements would perturb each other.
	Parallelism int
	// Sampling turns on the sub-O(N²) sampled measurement mode for Forker
	// machines with at least 64 contexts (see sampled.go). Unlike
	// Parallelism it can in principle select different (fallback) work, so
	// it is part of the registry's cache key.
	Sampling bool

	// floor overrides the sampled mode's samplingFloor (0 = the
	// constant): the seam through which this package's tests reach small
	// platforms. Unexported, so no caller outside the package sets it and
	// no cache key records it.
	floor int
}

func (o *Options) fillDefaults() {
	if o.Reps <= 0 {
		o.Reps = defaultReps
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// Normalized returns the options with every zero field replaced by its
// default — the exact configuration Infer will run with. Callers that key
// caches by options must normalize first, so that e.g. the zero value and
// an explicit Reps of 2000 share one entry.
func (o Options) Normalized() Options {
	o.fillDefaults()
	return o
}

// Result carries the inferred topology plus the intermediate artifacts of
// every algorithm step, so tools can render Figure 6.
type Result struct {
	Topology *topo.Topology

	// Enriched reports whether Topology carries the plugin measurements
	// (Section 4). Infer itself never enriches; the facade sets this after
	// running the plugins, and leaves it false when best-effort host
	// enrichment fails — the typed "unenriched" marker callers check
	// instead of probing for zeroed bandwidth fields.
	Enriched bool

	// RawTable is the N x N median latency table (step 1).
	RawTable [][]int64
	// Clusters are the detected latency clusters, ascending (step 2).
	Clusters []stats.Triplet
	// NormTable is the normalized latency table (step 2).
	NormTable [][]int64
	// LevelGroups[l] is the context partition of grouping level l (step 3).
	LevelGroups [][][]int

	// SMT reports whether simultaneous multi-threading was detected, and
	// SMTWays the contexts per core.
	SMT     bool
	SMTWays int

	// RdtscOverhead is the estimated cost of one timestamp read.
	RdtscOverhead int64
	// Pairs is the number of context pairs measured; Retries counts
	// re-measurements due to unstable stdev.
	Pairs   int
	Retries int
	// Sampled reports whether the sampled measurement mode ran (it needs a
	// Forker machine with at least 64 contexts). FilledPairs counts table
	// entries filled from a verified class representative instead of
	// measured; FallbackBlocks counts class-pair blocks that failed
	// verification and were measured exhaustively.
	Sampled        bool
	FilledPairs    int
	FallbackBlocks int
	// Cycles is the total virtual/real cycles consumed by the measuring
	// threads — the inference cost reported in Section 3.5. On every
	// machine it is the sum of the per-pair measurements, warm-ups
	// included; the initial DVFS wait and rdtsc-overhead estimate on the
	// parent thread are not counted.
	Cycles int64
}

// ErrClustering is wrapped by all step-2/3/4 failures: the cases where
// libmctop "is not able to infer the topology, an error message is printed
// and the user must retry" (Section 3.5).
var ErrClustering = errors.New("mctopalg: unable to infer topology from latency clusters")

func clusterErr(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrClustering, fmt.Sprintf(format, args...))
}

// Infer runs MCTOP-ALG on a machine with no cancellation; it is
// InferContext with a background context.
func Infer(m machine.Machine, opt Options) (*Result, error) {
	return InferContext(context.Background(), m, opt)
}

// InferContext runs MCTOP-ALG on a machine. The context cancels the
// measurement phase between context pairs — the dominant cost, O(N²) pair
// measurements — so a server can abandon an inference whose client went
// away; a cancelled run returns ctx.Err().
func InferContext(ctx context.Context, m machine.Machine, opt Options) (*Result, error) {
	opt.fillDefaults()
	n := m.NumHWContexts()
	if n < 2 {
		return nil, fmt.Errorf("mctopalg: machine has %d hardware contexts; need at least 2", n)
	}
	nodes := m.NumNodes()
	if nodes < 1 {
		return nil, fmt.Errorf("mctopalg: machine reports %d nodes", nodes)
	}

	res := &Result{}

	// Step 1: latency table.
	if err := collectTable(ctx, m, &opt, res); err != nil {
		return nil, err
	}
	// Steps 2-4 are in-memory transforms, cheap next to the measurement
	// phase; one check here keeps a cancelled run from doing them at all.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Step 2: cluster and normalize.
	var offDiag []int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			offDiag = append(offDiag, res.RawTable[i][j])
		}
	}
	res.Clusters = stats.Cluster(offDiag, clusterGaps)
	if len(res.Clusters) == 0 {
		return nil, clusterErr("no latency clusters")
	}
	res.NormTable = stats.Normalize(res.RawTable, res.Clusters)

	// Step 3: component creation.
	levels, sockGroups, sockTable, err := buildComponents(res.NormTable, res.Clusters, n, nodes)
	if err != nil {
		return nil, err
	}
	res.LevelGroups = levels

	// Step 4: role assignment.
	spec, err := assignRoles(m, res, levels, sockGroups, sockTable, nodes)
	if err != nil {
		return nil, err
	}
	t, err := topo.FromSpec(*spec)
	if err != nil {
		return nil, fmt.Errorf("%w: inferred spec rejected: %v", ErrClustering, err)
	}
	res.Topology = t
	return res, nil
}

// pairFunc measures one context pair with the Figure 5 protocol, using the
// calling worker's scratch buffers.
type pairFunc func(sc *scratch, x, y int) pairOutcome

// collectTable fills res.RawTable using the lock-step protocol of Figure 5.
// Every pair is measured the same way (measureOn); what is chosen here, once,
// is where a pair's machine and threads come from. A machine.Forker gives
// every pair a fresh fork, measured over Options.Parallelism workers; any
// other machine measures one pair at a time on two threads it re-pins.
func collectTable(ctx context.Context, m machine.Machine, opt *Options, res *Result) error {
	n := m.NumHWContexts()
	res.RawTable = make([][]int64, n)
	for i := range res.RawTable {
		res.RawTable[i] = make([]int64, n)
	}

	// The reported rdtsc overhead comes from the parent machine; every pair
	// estimates and deducts its own.
	t0, err := m.NewThread(0)
	if err != nil {
		return err
	}
	machine.DVFSWait(m, t0)
	res.RdtscOverhead = m.RdtscOverhead(t0, overheadReps)

	c := collector{ctx: ctx, opt: opt, res: res}
	if fk, ok := m.(machine.Forker); ok {
		c.workers = opt.Parallelism
		c.pair = func(sc *scratch, x, y int) pairOutcome { return measureForked(fk, opt, x, y, sc) }
		floor := opt.floor
		if floor <= 0 {
			floor = samplingFloor
		}
		if opt.Sampling && n >= floor {
			return c.measureSampled(n)
		}
	} else {
		y, err := m.NewThread(1)
		if err != nil {
			return err
		}
		c.workers = 1
		c.pair = (&repinned{m: m, opt: opt, x: t0, y: y, row: -1}).measure
	}
	return c.measure(allPairs(n))
}

// pairOutcome is one pair's contribution to the latency table, produced by a
// worker and merged in canonical pair order.
type pairOutcome struct {
	med     int64
	cycles  int64
	retries int
	err     error
}

// ctxPair is one (x, y) context pair, x < y.
type ctxPair struct{ x, y int }

// allPairs enumerates every context pair in canonical (x, y) order.
func allPairs(n int) []ctxPair {
	pairs := make([]ctxPair, 0, n*(n-1)/2)
	for x := 0; x < n-1; x++ {
		for y := x + 1; y < n; y++ {
			pairs = append(pairs, ctxPair{x, y})
		}
	}
	return pairs
}

// collector is the state one table collection shares across its waves of
// pairs: exhaustive inference is the single wave allPairs(n), sampled
// inference is the pilots → verify → fill plan of sampled.go over the same
// measure. The workers only decide *when* a pair is measured, never *what*
// it observes: on a Forker each fork's noise stream is a pure function of
// (seed, x, y), and every wave is recorded in its own (x, y) order, so the
// resulting table — and hence the inferred topology — is byte-identical
// for every Parallelism, including 1.
type collector struct {
	ctx     context.Context
	opt     *Options
	res     *Result
	pair    pairFunc
	workers int
}

// measure runs one wave of pairs over the worker pool and records the
// outcomes into the table and counters in the wave's own order.
func (c *collector) measure(pairs []ctxPair) error {
	outcomes, err := c.run(pairs)
	if err != nil {
		return err
	}
	res := c.res
	for i, p := range pairs {
		o := outcomes[i]
		res.RawTable[p.x][p.y] = o.med
		res.RawTable[p.y][p.x] = o.med
		res.Pairs++
		res.Retries += o.retries
		res.Cycles += o.cycles
	}
	return nil
}

// run measures a list of pairs over the collector's worker pool and returns
// the outcomes indexed like the input. Each worker owns one scratch buffer
// set for its whole run — the hot-loop allocations happen once per worker,
// not once per pair.
func (c *collector) run(pairs []ctxPair) ([]pairOutcome, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	workers := min(c.workers, len(pairs))
	outcomes := make([]pairOutcome, len(pairs))
	var next int64
	var failed atomic.Bool // fail fast: don't measure O(N²) pairs past a doomed run
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newScratch(c.opt)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(pairs) || failed.Load() || c.ctx.Err() != nil {
					return
				}
				outcomes[i] = c.pair(sc, pairs[i].x, pairs[i].y)
				if outcomes[i].err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	// A cancelled run reports ctx.Err() even if a pair also failed: the
	// caller asked to stop, and the partial table is unusable either way.
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	if failed.Load() {
		for i := range pairs {
			if outcomes[i].err != nil {
				return nil, outcomes[i].err
			}
		}
	}
	return outcomes, nil
}

// measureForked measures one pair on a private fork and two fresh threads.
func measureForked(fk machine.Forker, opt *Options, xi, yi int, sc *scratch) pairOutcome {
	fm, err := fk.ForkPair(xi, yi)
	if err != nil {
		return pairOutcome{err: err}
	}
	x, err := fm.NewThread(xi)
	if err != nil {
		return pairOutcome{err: err}
	}
	y, err := fm.NewThread(yi)
	if err != nil {
		return pairOutcome{err: err}
	}
	return measureOn(fm, opt, x, y, true, sc)
}

// repinned measures the pairs of a machine that does not fork — the host,
// whose measurements must not overlap — one at a time in canonical order on
// one pair of threads, with one worker whatever Options.Parallelism says.
// Context x is warmed up once per row, context y once per pair.
type repinned struct {
	m    machine.Machine
	opt  *Options
	x, y machine.Thread
	row  int // the context x is pinned to and warm on; -1 before the first pair
}

// measure is repinned's pairFunc.
func (r *repinned) measure(sc *scratch, xi, yi int) pairOutcome {
	warmX := xi != r.row
	if warmX {
		if err := r.x.Pin(xi); err != nil {
			return pairOutcome{err: err}
		}
		r.row = xi
	}
	if err := r.y.Pin(yi); err != nil {
		return pairOutcome{err: err}
	}
	return measureOn(r.m, r.opt, r.x, r.y, warmX, sc)
}

// measureOn is step 1 for one pair on any machine: the DVFS wait (of x only
// when warmX), the rdtsc-overhead estimate, and the stability rule over the
// machine's Rounds. Its cycles run on x's clock from before the wait to
// after the accepted round.
func measureOn(m machine.Machine, opt *Options, x, y machine.Thread, warmX bool, sc *scratch) pairOutcome {
	start := x.Rdtsc()
	if warmX {
		machine.DVFSWait(m, x)
	}
	machine.DVFSWait(m, y)
	overhead := sc.rdtscOverhead(m, x)
	var o pairOutcome
	o.med = measurePair(m, opt, x, y, overhead, &o.retries, sc)
	o.cycles = x.Rdtsc() - start
	return o
}

// overheadReps is the number of back-to-back timestamp-read pairs the
// machine's rdtsc-overhead estimate takes the median of.
const overheadReps = 101

// scratch is the per-worker buffer set of the measurement phase. A worker
// measures hundreds of thousands of pairs on large platforms, and with a
// scratch the measurement itself allocates nothing per pair (the fork it
// runs on is one allocation): every round's samples are written into vals
// by the fork's Rounds, and the rdtsc-overhead estimate is memoized per
// thread.
type scratch struct {
	vals []int64 // one round's samples, capacity Options.Reps

	// Per-thread overhead memo. Each fork estimates on a fresh thread (a
	// miss, preserving its noise stream); repeat estimates on one thread
	// return the cached value. Thread implementations must be comparable.
	ovhThread machine.Thread
	ovhVal    int64
}

func newScratch(opt *Options) *scratch {
	return &scratch{vals: make([]int64, 0, opt.Reps)}
}

// rdtscOverhead returns the timestamp-read overhead of thread t of machine
// m, estimating it on first sight and serving repeats from the memo.
func (sc *scratch) rdtscOverhead(m machine.Machine, t machine.Thread) int64 {
	if sc.ovhThread == t {
		return sc.ovhVal
	}
	v := m.RdtscOverhead(t, overheadReps)
	sc.ovhThread, sc.ovhVal = t, v
	return v
}

// measurePair measures one pair: Figure 5's loop runs as the machine's
// Rounds, over the scratch sample buffer, and the stability rule
// re-measures on the same threads until a round is accepted. It returns
// the accepted median, deducting the given timestamp-read overhead from
// every sample and counting re-measurements into retries. It allocates
// nothing (asserted by TestMeasurePairSteadyStateAllocs).
func measurePair(m machine.Machine, opt *Options, x, y machine.Thread, rdtscOverhead int64, retries *int, sc *scratch) int64 {
	return stableMedian(func() []int64 {
		sc.vals = m.Rounds(x, y, opt.Reps, rdtscOverhead, sc.vals)
		return sc.vals
	}, retries)
}

// stableMedian applies the stability rule to one pair: it measures rounds
// until acceptMedian takes one, widening the threshold after every rejected
// round and counting the re-measurements into retries.
func stableMedian(round func() []int64, retries *int) int64 {
	threshold := stdevAccept
	for retry := 0; ; retry++ {
		if med, ok := acceptMedian(round(), threshold, retry); ok {
			return med
		}
		*retries++
		threshold = widen(threshold)
	}
}

// acceptMedian is the stability rule of Section 3.5: one round's median
// (at least 1) is accepted when the round's standard deviation is within
// threshold of it, or when the retry budget is spent — a round whose stdev
// is then never computed. It may reorder vals.
func acceptMedian(vals []int64, threshold float64, retry int) (med int64, ok bool) {
	last := retry >= maxRetries
	med, sd := stats.MedianStdevInPlace(vals, !last)
	med = max(med, 1)
	return med, last || sd <= threshold*float64(med)
}

// widen is the rule's other half: each re-measurement raises the threshold
// one maxRetries-th of the way from stdevAccept to stdevMax.
func widen(threshold float64) float64 {
	threshold += (stdevMax - stdevAccept) / maxRetries
	if threshold > stdevMax {
		threshold = stdevMax
	}
	return threshold
}

// buildComponents implements step 3: starting from singleton components,
// repeatedly merge components connected at the next latency level, checking
// the symmetry rules of Section 3.6, until components reach socket size
// (#contexts / #nodes). Returns the per-level partitions, the socket-level
// partition and the reduced socket-to-socket latency table.
func buildComponents(norm [][]int64, clusters []stats.Triplet, n, nodes int) (
	levels [][][]int, sockGroups [][]int, sockTable [][]int64, err error) {

	if n%nodes != 0 {
		return nil, nil, nil, clusterErr("%d contexts not divisible by %d nodes", n, nodes)
	}
	ctxPerSocket := n / nodes
	if ctxPerSocket < 2 {
		return nil, nil, nil, clusterErr("sockets of %d context are not inferable", ctxPerSocket)
	}

	// components[i] = sorted ctx ids; table = reduced latency table.
	components := make([][]int, n)
	for i := range components {
		components[i] = []int{i}
	}
	table := norm

	for li := 0; li < len(clusters); li++ {
		if len(components[0]) == ctxPerSocket {
			break // socket level reached; remaining clusters are cross levels
		}
		if len(components[0]) > ctxPerSocket {
			return nil, nil, nil, clusterErr(
				"components grew to %d contexts, past socket size %d", len(components[0]), ctxPerSocket)
		}
		lat := clusters[li].Median
		groups, reduced, gerr := groupAtLatency(components, table, lat)
		if gerr != nil {
			return nil, nil, nil, gerr
		}
		components = groups
		table = reduced
		// Record this level's partition.
		part := make([][]int, len(components))
		for i, c := range components {
			part[i] = append([]int(nil), c...)
		}
		levels = append(levels, part)
	}

	if len(components[0]) != ctxPerSocket {
		return nil, nil, nil, clusterErr(
			"no level yields socket-sized components (%d contexts per node); got %d",
			ctxPerSocket, len(components[0]))
	}
	return levels, components, table, nil
}

// groupAtLatency merges components communicating at exactly lat and reduces
// the table, enforcing: every component joins exactly one group, groups are
// uniform in size, groups are internally complete at lat, and members of a
// group have identical latencies to every other group.
func groupAtLatency(components [][]int, table [][]int64, lat int64) ([][]int, [][]int64, error) {
	k := len(components)
	// Union-find over components connected at lat.
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if table[i][j] == lat {
				union(i, j)
			}
		}
	}
	groupsByRoot := make(map[int][]int)
	for i := 0; i < k; i++ {
		r := find(i)
		groupsByRoot[r] = append(groupsByRoot[r], i)
	}
	var memberSets [][]int
	for _, members := range groupsByRoot {
		memberSets = append(memberSets, members)
	}
	sort.Slice(memberSets, func(a, b int) bool { return memberSets[a][0] < memberSets[b][0] })

	size := len(memberSets[0])
	if size == 1 {
		return nil, nil, clusterErr("latency level %d groups nothing", lat)
	}
	for _, ms := range memberSets {
		if len(ms) != size {
			return nil, nil, clusterErr(
				"latency level %d produces groups of size %d and %d", lat, size, len(ms))
		}
		// Internal completeness: every pair inside the group must be lat.
		for a := 0; a < len(ms); a++ {
			for b := a + 1; b < len(ms); b++ {
				if table[ms[a]][ms[b]] != lat {
					return nil, nil, clusterErr(
						"components %d and %d grouped at level %d but communicate at %d",
						ms[a], ms[b], lat, table[ms[a]][ms[b]])
				}
			}
		}
	}

	// Reduce the table, verifying external uniformity.
	g := len(memberSets)
	reduced := make([][]int64, g)
	for i := range reduced {
		reduced[i] = make([]int64, g)
	}
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			ref := table[memberSets[gi][0]][memberSets[gj][0]]
			for _, a := range memberSets[gi] {
				for _, b := range memberSets[gj] {
					if table[a][b] != ref {
						return nil, nil, clusterErr(
							"group (%d,%d) has non-uniform external latency: %d vs %d",
							gi, gj, table[a][b], ref)
					}
				}
			}
			reduced[gi][gj] = ref
			reduced[gj][gi] = ref
		}
	}

	// Merge the context sets.
	merged := make([][]int, g)
	for gi, ms := range memberSets {
		for _, ci := range ms {
			merged[gi] = append(merged[gi], components[ci]...)
		}
		sort.Ints(merged[gi])
	}
	return merged, reduced, nil
}

// assignRoles implements step 4: detect SMT (deciding whether the first
// level's components are cores), classify the socket level, turn remaining
// clusters into cross-socket levels, and assign memory nodes to sockets.
func assignRoles(m machine.Machine, res *Result,
	levels [][][]int, sockGroups [][]int, sockTable [][]int64, nodes int) (*topo.Spec, error) {

	n := m.NumHWContexts()

	// SMT detection (Section 3.5): run the calibrated loop solo and then on
	// the two contexts with minimum latency; SMT sharing dilates it.
	res.SMT = false
	res.SMTWays = 1
	if len(levels) > 0 {
		a, b := minLatencyPair(res.RawTable, n)
		ta, err := m.NewThread(a)
		if err != nil {
			return nil, err
		}
		tb, err := m.NewThread(b)
		if err != nil {
			return nil, err
		}
		machine.DVFSWait(m, ta)
		machine.DVFSWait(m, tb)
		solo := m.SpinSolo(ta, machine.SpinUnit)
		d1, d2 := m.SpinTogether(ta, tb, machine.SpinUnit)
		together := d1
		if d2 > together {
			together = d2
		}
		if float64(together) > 1.4*float64(solo) {
			res.SMT = true
			res.SMTWays = len(levels[0][0])
		}
	}

	// Sort socket groups by smallest member for stable socket ids.
	ordered := make([][]int, len(sockGroups))
	copy(ordered, sockGroups)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i][0] < ordered[j][0] })

	// Cluster bookkeeping: which cluster fed which grouping level.
	nGroupLevels := len(levels)
	crossClusters := res.Clusters[nGroupLevels:]

	// Permute the reduced socket table to the ordered socket ids.
	perm := make([]int, len(ordered))
	for newID, g := range ordered {
		for oldID, og := range sockGroups {
			if og[0] == g[0] {
				perm[newID] = oldID
				break
			}
		}
	}
	nS := len(ordered)
	socketLat := make([][]int64, nS)
	for i := range socketLat {
		socketLat[i] = make([]int64, nS)
		for j := range socketLat[i] {
			if i == j {
				continue
			}
			socketLat[i][j] = sockTable[perm[i]][perm[j]]
		}
	}

	// Validate: every cross latency belongs to a cross cluster.
	for i := 0; i < nS; i++ {
		for j := i + 1; j < nS; j++ {
			found := false
			for _, c := range crossClusters {
				if c.Contains(socketLat[i][j]) {
					found = true
					break
				}
			}
			if !found {
				return nil, clusterErr("socket latency %d not in any cross-socket cluster", socketLat[i][j])
			}
		}
	}

	// Build levels for the spec.
	var specLevels []topo.Level
	for li, part := range levels {
		c := res.Clusters[li]
		name := fmt.Sprintf("group-%d", li+1)
		kind := topo.LevelGroup
		if li == 0 && res.SMT {
			name = "core"
		}
		if li == nGroupLevels-1 {
			name = "socket"
			kind = topo.LevelSocket
		}
		specLevels = append(specLevels, topo.Level{
			Name: name, Kind: kind, Min: c.Min, Median: c.Median, Max: c.Max,
			Groups: part,
		})
	}
	// Socket groups must appear in the ordered arrangement.
	specLevels[nGroupLevels-1].Groups = ordered
	for ci, c := range crossClusters {
		specLevels = append(specLevels, topo.Level{
			Name: fmt.Sprintf("cross-%d", ci+1), Kind: topo.LevelCross,
			Min: c.Min, Median: c.Median, Max: c.Max,
		})
	}
	// Intra-socket latency on the diagonal.
	intra := specLevels[nGroupLevels-1].Median
	for i := 0; i < nS; i++ {
		socketLat[i][i] = intra
	}

	// Node assignment: measure which node each socket reaches fastest —
	// this is how MCTOP gets the mapping right when the OS has it wrong
	// (footnote 1). Fall back to identity without a memory prober.
	nodeOf := make([]int, nS)
	prober, hasProber := m.(machine.MemoryProber)
	if hasProber && nodes > 1 {
		th, err := m.NewThread(0)
		if err != nil {
			return nil, err
		}
		for s := 0; s < nS; s++ {
			if err := th.Pin(ordered[s][0]); err != nil {
				return nil, err
			}
			machine.DVFSWait(m, th)
			best, bestLat := -1, int64(0)
			for node := 0; node < nodes; node++ {
				const probes = 64
				lat := prober.MemRandomAccess(th, node, probes) / probes
				if best == -1 || lat < bestLat {
					best, bestLat = node, lat
				}
			}
			nodeOf[s] = best
		}
		if nS == nodes {
			seen := make([]bool, nodes)
			for _, nd := range nodeOf {
				if seen[nd] {
					return nil, clusterErr("two sockets measured node %d as local", nd)
				}
				seen[nd] = true
			}
		}
	} else {
		if nS != nodes {
			return nil, clusterErr("%d sockets vs %d nodes and no memory prober to map them", nS, nodes)
		}
		for s := range nodeOf {
			nodeOf[s] = s
		}
	}

	spec := &topo.Spec{
		Name:         m.Name(),
		Contexts:     n,
		Nodes:        nodes,
		SMTWays:      res.SMTWays,
		Levels:       specLevels,
		NodeOfSocket: nodeOf,
		SocketLat:    socketLat,
	}
	if f, ok := m.(machine.FrequencyGHz); ok {
		spec.FreqGHz = f.FreqMaxGHz()
	}
	return spec, nil
}

// minLatencyPair returns the context pair with the smallest non-zero raw
// latency.
func minLatencyPair(table [][]int64, n int) (int, int) {
	ba, bb := 0, 1
	best := table[0][1]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if table[i][j] < best {
				best = table[i][j]
				ba, bb = i, j
			}
		}
	}
	return ba, bb
}
