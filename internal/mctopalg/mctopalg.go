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
//  2. cluster the values (the CDF's plateaus); the normalized table is the
//     raw one read through the clusters, every value as its cluster's
//     median, and is never built;
//  3. recursively group contexts into components per latency level;
//  4. assign roles (cores, sockets, cross-socket levels) to components.
//
// Section 3.5 fixes the algorithm's parameters, and so does this package:
// the stability rule, the clustering gaps and the sampled mode's sizes are
// constants. Options carries only what callers vary — the repetition
// count, the worker pool and the sampled mode.
package mctopalg

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// each pair is measured on a worker's fork re-forked for it, whose
	// noise stream depends only on (seed, x, y), and its median lands in
	// its own slot of the table.
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
// default — the exact configuration InferContext will run with. Callers
// that key caches by options must normalize first, so that e.g. the zero
// value and an explicit Reps of 2000 share one entry.
func (o Options) Normalized() Options {
	o.fillDefaults()
	return o
}

// Result carries the inferred topology plus the intermediate artifacts of
// every algorithm step, so tools can render Figure 6.
type Result struct {
	Topology *topo.Topology

	// Enriched reports whether Topology carries the plugin measurements
	// (Section 4). InferContext itself never enriches; the facade sets
	// this after running the plugins, and leaves it false when best-effort
	// host enrichment fails — the typed "unenriched" marker callers check
	// instead of probing for zeroed bandwidth fields.
	Enriched bool

	// RawTable is the median latency table (step 1), the one table an
	// inference holds: each context pair's median, stored once.
	RawTable Table
	// Clusters are the detected latency clusters, ascending (step 2). The
	// normalized table of Figure 6 is RawTable read through them — every
	// value counts as its cluster's median — and Heatmap renders it.
	Clusters []stats.Triplet
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

	// Step 2: cluster the off-diagonal values' histogram. Steps 3 and 4
	// read the raw table through the clusters (lookup.medianOf).
	lk := clusterTable(res.RawTable)
	res.Clusters = lk.clusters
	if len(res.Clusters) == 0 {
		return nil, clusterErr("no latency clusters")
	}

	// Step 3: component creation.
	levels, err := buildComponents(res.RawTable, lk, n, nodes)
	if err != nil {
		return nil, err
	}
	res.LevelGroups = levels

	// Step 4: role assignment.
	spec, err := assignRoles(m, res, lk, nodes)
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

// pairFunc measures one context pair with the Figure 5 protocol on the
// calling worker's scratch, adding its retries and cycles to the scratch's
// sums, and returns the pair's median.
type pairFunc func(sc *scratch, x, y int) (int64, error)

// collectTable fills res.RawTable using the lock-step protocol of Figure 5.
// Every pair is measured the same way (measureOn); what is chosen here, once,
// is where a pair's machine and threads come from. On a machine.Forker each
// of Options.Parallelism workers owns one fork and re-forks it for every
// pair it measures; any other machine measures one pair at a time on two
// threads it re-pins.
func collectTable(ctx context.Context, m machine.Machine, opt *Options, res *Result) error {
	n := m.NumHWContexts()
	res.RawTable = Table{n: n, v: make([]int64, n*(n-1)/2)}

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
		c.forker = fk
		c.pair = func(sc *scratch, x, y int) (int64, error) { return measureForked(opt, sc, x, y) }
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
	return c.measure(n*(n-1)/2, func(i int) (int, int) { return pairAt(n, i) })
}

// Table is a latency table over n contexts. Every table MCTOP-ALG handles
// is symmetric with a zero diagonal, so a Table stores each pair once: slot
// i of its n(n-1)/2 values holds pair pairAt(n, i).
type Table struct {
	n int
	v []int64
}

// N returns the number of contexts.
func (t Table) N() int { return t.n }

// At returns the latency between contexts x and y, which is 0 for x == y.
func (t Table) At(x, y int) int64 {
	if x == y {
		return 0
	}
	return t.v[t.slot(min(x, y), max(x, y))]
}

// slot is the index of pair (x, y), x < y: row x starts after the
// (n-1) + (n-2) + ... + (n-x) pairs of the rows above it.
func (t Table) slot(x, y int) int {
	return x*t.n - x*(x+1)/2 + y - x - 1
}

// pairAt returns the i-th of the n(n-1)/2 context pairs of n contexts in
// canonical (x, y) order, row x holding the pairs (x, y > x): the storage
// order of a Table, and the exhaustive wave's. Counted from the end, the
// rows hold 1, 2, 3, ... pairs: the r-th pair from the end lies in the
// j-th row from the end for j(j+1)/2 <= r < (j+1)(j+2)/2.
func pairAt(n, i int) (x, y int) {
	r := n*(n-1)/2 - 1 - i
	j := int((math.Sqrt(float64(8*r+1)) - 1) / 2)
	for j*(j+1)/2 > r {
		j--
	}
	for (j+1)*(j+2)/2 <= r {
		j++
	}
	return n - 2 - j, n - 1 - (r - j*(j+1)/2)
}

// collector is the state one table collection shares across its waves of
// pairs: exhaustive inference is the single wave of every pair in (x, y)
// order, sampled inference the pilots → verify → fill plan of sampled.go
// over the same measure. The workers only decide *when* a pair is
// measured, never *what* it observes: on a Forker each pair's noise stream
// is a pure function of (seed, x, y), every median lands in the pair's own
// slot of the table and the counters are integer sums, so the resulting
// table — and hence the inferred topology — is byte-identical for every
// Parallelism, including 1.
type collector struct {
	ctx     context.Context
	opt     *Options
	res     *Result
	pair    pairFunc
	forker  machine.Forker // nil on a machine that does not fork
	workers int
}

// measure runs one wave of count pairs, the i-th being pairAt(i) with
// x < y, over the worker pool. Each worker owns one scratch — one fork on a Forker, one
// sample buffer — for the whole wave, writes the medians it measures
// straight into the table and sums its own counters, which are added to
// the result once the wave is done. A failed wave returns the error of its
// first failing pair in wave order.
func (c *collector) measure(count int, pairAt func(i int) (x, y int)) error {
	if count == 0 {
		return nil
	}
	tab := c.res.RawTable
	scs := make([]*scratch, min(c.workers, count))
	var next atomic.Int64
	var failed atomic.Bool // fail fast: don't measure O(N²) pairs past a doomed run
	var wg sync.WaitGroup
	for w := range scs {
		sc := newScratch(c.opt)
		if c.forker != nil {
			sc.fork = c.forker.NewFork()
		}
		scs[w] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Checked before the claim, so that every claimed pair is
				// measured: the first failing pair in wave order always is.
				if failed.Load() || c.ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				x, y := pairAt(i)
				med, err := c.pair(sc, x, y)
				if err != nil {
					sc.err, sc.errAt = err, i
					failed.Store(true)
					return
				}
				tab.v[tab.slot(x, y)] = med
				sc.pairs++
			}
		}()
	}
	wg.Wait()

	// A cancelled run reports ctx.Err() even if a pair also failed: the
	// caller asked to stop, and the partial table is unusable either way.
	if err := c.ctx.Err(); err != nil {
		return err
	}
	var first *scratch
	for _, sc := range scs {
		if sc.err != nil && (first == nil || sc.errAt < first.errAt) {
			first = sc
		}
	}
	if first != nil {
		return first.err
	}
	for _, sc := range scs {
		c.res.Pairs += sc.pairs
		c.res.Retries += sc.retries
		c.res.Cycles += sc.cycles
	}
	return nil
}

// measureForked measures one pair on the worker's fork, re-forked for it,
// and the fork's two threads. Those are the previous pair's thread values,
// so the overhead memo is forgotten first: every pair estimates its own.
func measureForked(opt *Options, sc *scratch, xi, yi int) (int64, error) {
	if err := sc.fork.Refork(xi, yi); err != nil {
		return 0, err
	}
	sc.ovhThread = nil
	x, err := sc.fork.NewThread(xi)
	if err != nil {
		return 0, err
	}
	y, err := sc.fork.NewThread(yi)
	if err != nil {
		return 0, err
	}
	return measureOn(sc.fork, opt, x, y, true, sc), nil
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
func (r *repinned) measure(sc *scratch, xi, yi int) (int64, error) {
	warmX := xi != r.row
	if warmX {
		if err := r.x.Pin(xi); err != nil {
			return 0, err
		}
		r.row = xi
	}
	if err := r.y.Pin(yi); err != nil {
		return 0, err
	}
	return measureOn(r.m, r.opt, r.x, r.y, warmX, sc), nil
}

// measureOn is step 1 for one pair on any machine: the DVFS wait (of x only
// when warmX), the rdtsc-overhead estimate, and the stability rule over the
// machine's Rounds. It returns the accepted median and adds the pair's
// retries and its cycles — on x's clock, from before the wait to after the
// accepted round — to the scratch's sums.
func measureOn(m machine.Machine, opt *Options, x, y machine.Thread, warmX bool, sc *scratch) int64 {
	start := x.Rdtsc()
	if warmX {
		machine.DVFSWait(m, x)
	}
	machine.DVFSWait(m, y)
	overhead := sc.rdtscOverhead(m, x)
	med := measurePair(m, opt, x, y, overhead, sc)
	sc.cycles += x.Rdtsc() - start
	return med
}

// overheadReps is the number of back-to-back timestamp-read pairs the
// machine's rdtsc-overhead estimate takes the median of.
const overheadReps = 101

// scratch is what one measurement worker owns for a wave. A worker
// measures hundreds of thousands of pairs on large platforms, and with a
// scratch a pair allocates nothing (asserted by
// TestMeasurePairSteadyStateAllocs): on a Forker the worker re-forks its
// one fork for every pair, every round's samples are written into vals by
// the machine's Rounds, and the rdtsc-overhead estimate is memoized per
// thread. The worker sums its own counters here, and records its failure.
type scratch struct {
	vals []int64      // one round's samples, capacity Options.Reps
	fork machine.Fork // the worker's fork; nil on a machine that does not fork

	// Per-thread overhead memo. A re-forked fork hands out the previous
	// pair's thread values, so measureForked forgets the memo per pair;
	// the repinned threads of a machine that does not fork keep theirs.
	// Thread implementations must be comparable.
	ovhThread machine.Thread
	ovhVal    int64

	// The worker's sums over the pairs it measured, and its failure: the
	// error and the wave index of the pair that failed.
	pairs, retries int
	cycles         int64
	err            error
	errAt          int
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
// every sample and counting re-measurements into the scratch's retries.
func measurePair(m machine.Machine, opt *Options, x, y machine.Thread, rdtscOverhead int64, sc *scratch) int64 {
	return stableMedian(func() []int64 {
		sc.vals = m.Rounds(x, y, opt.Reps, rdtscOverhead, sc.vals)
		return sc.vals
	}, &sc.retries)
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
// (#contexts / #nodes). It reads the raw table through the clusters (lk),
// so the raw table serves as step 2's normalized one. Returns the per-level
// partitions; the last is the socket level. Every level's groups are
// ordered by their smallest context: the singletons start that way, and
// groupAtLatency keeps it.
func buildComponents(raw Table, lk *lookup, n, nodes int) (levels [][][]int, err error) {
	if n%nodes != 0 {
		return nil, clusterErr("%d contexts not divisible by %d nodes", n, nodes)
	}
	ctxPerSocket := n / nodes
	if ctxPerSocket < 2 {
		return nil, clusterErr("sockets of %d context are not inferable", ctxPerSocket)
	}

	// components[i] = sorted ctx ids.
	components := make([][]int, n)
	for i := range components {
		components[i] = []int{i}
	}

	clusters := lk.clusters
	for li := 0; li < len(clusters); li++ {
		if len(components[0]) == ctxPerSocket {
			break // socket level reached; remaining clusters are cross levels
		}
		if len(components[0]) > ctxPerSocket {
			return nil, clusterErr(
				"components grew to %d contexts, past socket size %d", len(components[0]), ctxPerSocket)
		}
		components, err = groupAtLatency(components, raw, lk, clusters[li].Median)
		if err != nil {
			return nil, err
		}
		levels = append(levels, components)
	}

	if len(components[0]) != ctxPerSocket {
		return nil, clusterErr(
			"no level yields socket-sized components (%d contexts per node); got %d",
			ctxPerSocket, len(components[0]))
	}
	return levels, nil
}

// denseMin is the value range under which step 2 counts a table's values
// in a dense array whatever the table's size (32 KB of counts).
const denseMin = 1 << 12

// lookup reads latencies through step 2's clusters: medianOf(v) is the
// median of the cluster stats.Assign gives v. The clusters partition the
// off-diagonal values they were built from, and a median maps to itself.
type lookup struct {
	clusters []stats.Triplet
	// median[v-lo] is medianOf(v) for v in [lo, lo+len(median)): the whole
	// range of the table's values when step 2 counted them densely, and
	// empty otherwise.
	lo     int64
	median []int64
}

// medianOf is one array read for a value in the dense range and
// stats.Assign for any other.
func (lk *lookup) medianOf(v int64) int64 {
	if d := uint64(v - lk.lo); d < uint64(len(lk.median)) {
		return lk.median[d]
	}
	i, _ := stats.Assign(lk.clusters, v)
	return lk.clusters[i].Median
}

// clusterTable is step 2: it counts the table's values by value and
// clusters that histogram (stats.ClusterBins), without a copy of the
// values. A latency table's values are cycles a few thousand apart at most,
// so they are counted in a dense array over their range, which then
// becomes the lookup's median array; only a range wider than both the
// value count and denseMin — a few values spread far apart — is counted in
// a map, and read through stats.Assign.
func clusterTable(table Table) *lookup {
	lo, hi := slices.Min(table.v), slices.Max(table.v)
	lk := &lookup{lo: lo}
	var bins []stats.Bin
	if span := uint64(hi - lo); span < uint64(max(len(table.v), denseMin)) {
		counts := make([]int64, span+1)
		for _, v := range table.v {
			counts[v-lo]++
		}
		for d, c := range counts {
			if c > 0 {
				bins = append(bins, stats.Bin{Value: lo + int64(d), Count: int(c)})
			}
		}
		lk.clusters = stats.ClusterBins(bins, clusterGaps)
		for d := range counts {
			i, _ := stats.Assign(lk.clusters, lo+int64(d))
			counts[d] = lk.clusters[i].Median
		}
		lk.median = counts
		return lk
	}
	counts := map[int64]int{}
	for _, v := range table.v {
		counts[v]++
	}
	for v, c := range counts {
		bins = append(bins, stats.Bin{Value: v, Count: c})
	}
	slices.SortFunc(bins, func(a, b stats.Bin) int { return cmp.Compare(a.Value, b.Value) })
	lk.clusters = stats.ClusterBins(bins, clusterGaps)
	return lk
}

// groupAtLatency merges components communicating at exactly lat, enforcing:
// every component joins exactly one group, groups are uniform in size,
// groups are internally complete at lat, and members of a group have
// identical latencies to every other group. Two components communicate at
// the cluster median of their smallest contexts' raw latency: by induction,
// components are numbered by their smallest context and uniform to each
// other, so that one read is what every pair of their contexts reads.
func groupAtLatency(components [][]int, raw Table, lk *lookup, lat int64) ([][]int, error) {
	k := len(components)
	at := func(i, j int) int64 { return lk.medianOf(raw.At(components[i][0], components[j][0])) }
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
			if at(i, j) == lat {
				union(i, j)
			}
		}
	}
	// Number the groups in one ascending pass: a group's id is fixed when
	// its smallest component is met.
	groupOf := make([]int, k)
	for i := range groupOf {
		groupOf[i] = -1
	}
	var memberSets [][]int
	for i := 0; i < k; i++ {
		r := find(i)
		if groupOf[r] < 0 {
			groupOf[r] = len(memberSets)
			memberSets = append(memberSets, nil)
		}
		memberSets[groupOf[r]] = append(memberSets[groupOf[r]], i)
	}

	size := len(memberSets[0])
	if size == 1 {
		return nil, clusterErr("latency level %d groups nothing", lat)
	}
	for _, ms := range memberSets {
		if len(ms) != size {
			return nil, clusterErr(
				"latency level %d produces groups of size %d and %d", lat, size, len(ms))
		}
		// Internal completeness: every pair inside the group must be lat.
		for a := 0; a < len(ms); a++ {
			for b := a + 1; b < len(ms); b++ {
				if v := at(ms[a], ms[b]); v != lat {
					return nil, clusterErr(
						"components %d and %d grouped at level %d but communicate at %d",
						ms[a], ms[b], lat, v)
				}
			}
		}
	}

	// Verify external uniformity.
	g := len(memberSets)
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			ref := at(memberSets[gi][0], memberSets[gj][0])
			for _, a := range memberSets[gi] {
				for _, b := range memberSets[gj] {
					if v := at(a, b); v != ref {
						return nil, clusterErr(
							"group (%d,%d) has non-uniform external latency: %d vs %d",
							gi, gj, v, ref)
					}
				}
			}
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
	return merged, nil
}

// assignRoles implements step 4 on step 3's res.LevelGroups: detect SMT
// (deciding whether the first level's components are cores), classify the
// socket level, turn remaining clusters into cross-socket levels, and
// assign memory nodes to sockets.
func assignRoles(m machine.Machine, res *Result, lk *lookup, nodes int) (*topo.Spec, error) {
	n := m.NumHWContexts()
	levels := res.LevelGroups

	// SMT detection (Section 3.5): run the calibrated loop solo and then on
	// the two contexts with minimum latency — the first minimum in (x, y)
	// order; SMT sharing dilates it. Step 3 found at least one level.
	raw := res.RawTable.v
	a, b := pairAt(n, slices.Index(raw, slices.Min(raw)))
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
	res.SMT = float64(max(d1, d2)) > 1.4*float64(solo)
	res.SMTWays = 1
	if res.SMT {
		res.SMTWays = len(levels[0][0])
	}

	// Cluster bookkeeping: which cluster fed which grouping level.
	nGroupLevels := len(levels)
	crossClusters := res.Clusters[nGroupLevels:]
	// Socket ids are step 3's order of the socket groups, by smallest
	// context; the intra-socket latency is the diagonal.
	sockGroups := levels[nGroupLevels-1]
	socketLat := socketLatencies(res.RawTable, lk, sockGroups, res.Clusters[nGroupLevels-1].Median)
	nS := len(sockGroups)

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
	for ci, c := range crossClusters {
		specLevels = append(specLevels, topo.Level{
			Name: fmt.Sprintf("cross-%d", ci+1), Kind: topo.LevelCross,
			Min: c.Min, Median: c.Median, Max: c.Max,
		})
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
			if err := th.Pin(sockGroups[s][0]); err != nil {
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

// socketLatencies is the socket-to-socket latency matrix of step 4: the
// cluster median of two socket groups' smallest contexts' raw latency, the
// value step 3 grouped them by, and intra on the diagonal.
func socketLatencies(raw Table, lk *lookup, sockGroups [][]int, intra int64) [][]int64 {
	lat := make([][]int64, len(sockGroups))
	for i, gi := range sockGroups {
		lat[i] = make([]int64, len(sockGroups))
		for j, gj := range sockGroups {
			lat[i][j] = lk.medianOf(raw.At(gi[0], gj[0]))
		}
		lat[i][i] = intra
	}
	return lat
}
