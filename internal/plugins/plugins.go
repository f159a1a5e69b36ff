// Package plugins implements the four enrichment plugins of Section 4 of
// the MCTOP paper: memory latency, memory bandwidth, cache latency/size and
// power. Each plugin measures the machine through the optional prober
// interfaces of internal/machine and returns an enriched topology spec;
// "essentially, libmctop gives the best-case bandwidth and latency of a
// multi-core — these characteristics in the absence of contention."
//
// Plugins are pure functions from (machine, topology) to an updated spec:
// the topology itself is immutable, so enrichment rebuilds it.
package plugins

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Plugin measures one aspect of the machine and records it into the spec.
// Custom plugins can be added by implementing this interface ("developers
// can write their own plugins to further enrich MCTOP").
type Plugin interface {
	Name() string
	// Run measures m and mutates spec in place. t is the already inferred
	// base topology (for structure queries). Run returns an error only for
	// real failures; machines lacking the needed prober are skipped with
	// ErrUnsupported.
	Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error
}

// ErrUnsupported is returned by plugins whose prober the machine lacks
// (e.g. power on non-Intel platforms).
type ErrUnsupported struct{ PluginName string }

func (e ErrUnsupported) Error() string {
	return fmt.Sprintf("plugins: machine does not support %s measurements", e.PluginName)
}

// All returns the paper's four essential plugins in their natural order.
func All() []Plugin {
	return []Plugin{MemLatency{}, MemBandwidth{}, Cache{}, Power{}}
}

// Enrich runs the given plugins (All() if nil) over a topology and returns
// the enriched, rebuilt topology. Unsupported plugins are skipped. Probes
// run sequentially through the machine's single noise stream — the
// behavior every description file, spool entry and golden fixture was
// generated with. There is deliberately no parallel variant: the whole
// phase is a millisecond or two, well under 1 % of a cold inference.
func Enrich(m machine.Machine, t *topo.Topology, ps []Plugin) (*topo.Topology, error) {
	if ps == nil {
		ps = All()
	}
	spec := t.Spec()
	for _, p := range ps {
		err := p.Run(m, t, &spec)
		if err == nil {
			continue
		}
		if _, skip := err.(ErrUnsupported); skip {
			continue
		}
		return nil, fmt.Errorf("plugins: %s: %w", p.Name(), err)
	}
	return topo.FromSpec(spec)
}

// repCtx returns a representative hardware context of each socket (its
// first context).
func repCtx(t *topo.Topology) []int {
	reps := make([]int, t.NumSockets())
	for i, s := range t.Sockets() {
		reps[i] = s.Contexts[0].ID
	}
	return reps
}

// MemLatency measures the load latency from every socket to every node
// using a randomly connected linked list of cache lines, "resulting in
// cache misses for almost every iteration" (Section 4).
type MemLatency struct {
	// Probes is the number of dependent loads per (socket, node) sample
	// (default 512).
	Probes int
}

// Name implements Plugin.
func (MemLatency) Name() string { return "mem-latency" }

// Run implements Plugin.
func (p MemLatency) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	prober, ok := m.(machine.MemoryProber)
	if !ok {
		return ErrUnsupported{p.Name()}
	}
	probes := p.Probes
	if probes <= 0 {
		probes = 512
	}
	reps := repCtx(t)
	lat := make([][]int64, t.NumSockets())
	th, err := m.NewThread(reps[0])
	if err != nil {
		return err
	}
	for s := range reps {
		if err := th.Pin(reps[s]); err != nil {
			return err
		}
		machine.DVFSWait(m, th)
		lat[s] = make([]int64, t.NumNodes())
		for n := 0; n < t.NumNodes(); n++ {
			lat[s][n] = medianOfChunks(16, func(chunk int) int64 {
				return prober.MemRandomAccess(th, n, chunk)
			}, probes)
		}
	}
	spec.MemLat = lat
	return nil
}

// medianOfChunks splits total accesses into nChunks batches, computes the
// per-access average of each batch, and returns the median — robust against
// the occasional spurious spike (an interrupt or background process) that
// would otherwise inflate a plain mean.
func medianOfChunks(nChunks int, batch func(chunk int) int64, total int) int64 {
	per := total / nChunks
	if per < 1 {
		per = 1
	}
	avgs := make([]int64, 0, nChunks)
	for i := 0; i < nChunks; i++ {
		avgs = append(avgs, batch(per)/int64(per))
	}
	return stats.Median(avgs)
}

// MemBandwidth measures the achievable bandwidth from every socket to every
// node by streaming sequentially with an increasing number of cores until
// the aggregate stops improving (Section 4), and records the single-core
// streaming bandwidth used by the RR_SCALE policy.
type MemBandwidth struct{}

// Name implements Plugin.
func (MemBandwidth) Name() string { return "mem-bandwidth" }

// streamCtxs returns one context per core of the socket, in core order —
// the streaming team of the bandwidth saturation sweep.
func streamCtxs(t *topo.Topology, sock *topo.Socket) []int {
	var ctxs []int
	for _, core := range t.SocketGetCores(sock) {
		ctxs = append(ctxs, core.Contexts[0].ID)
	}
	return ctxs
}

// saturatedBW streams from node with an increasing number of cores until
// the aggregate stops improving (Section 4).
func saturatedBW(prober machine.MemoryProber, ctxs []int, node int) float64 {
	best := 0.0
	for k := 1; k <= len(ctxs); k++ {
		cur := prober.StreamBandwidth(ctxs[:k], node)
		if cur <= best*1.005 { // saturated
			break
		}
		best = cur
	}
	return best
}

// fillSocketBW derives the interconnect bandwidths: the bandwidth from
// socket A to socket B's local node is limited by the link(s) between
// them — this fills the cross-socket graph's GB/s labels (Figures 1b, 2b)
// and feeds the reduction-tree planner.
func fillSocketBW(t *topo.Topology, bw [][]float64, spec *topo.Spec) {
	nS := t.NumSockets()
	sbw := make([][]float64, nS)
	for a := 0; a < nS; a++ {
		sbw[a] = make([]float64, nS)
		for b := 0; b < nS; b++ {
			if a == b {
				continue
			}
			sbw[a][b] = bw[a][t.Socket(b).Local.ID]
		}
	}
	spec.SocketBW = sbw
}

// Run implements Plugin.
func (p MemBandwidth) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	prober, ok := m.(machine.MemoryProber)
	if !ok {
		return ErrUnsupported{p.Name()}
	}
	bw := make([][]float64, t.NumSockets())
	for s, sock := range t.Sockets() {
		bw[s] = make([]float64, t.NumNodes())
		ctxs := streamCtxs(t, sock)
		for n := 0; n < t.NumNodes(); n++ {
			bw[s][n] = saturatedBW(prober, ctxs, n)
		}
		if s == 0 && len(ctxs) > 0 {
			spec.StreamCoreBW = prober.StreamBandwidth(ctxs[:1], t.Sockets()[0].Local.ID)
		}
	}
	spec.MemBW = bw
	fillSocketBW(t, bw, spec)
	return nil
}

// Cache estimates the latency and size of the cache hierarchy by timing
// dependent loads over growing working sets and detecting the latency
// steps; it also "loads and includes the cache sizes from the operating
// system" (Section 4).
type Cache struct {
	// Loads per working-set sample (default 256).
	Loads int
}

// Name implements Plugin.
func (Cache) Name() string { return "cache" }

// cacheSweepSizes returns the working-set sweep: 4 KB to 128 MB in x2
// steps.
func cacheSweepSizes() []int64 {
	var sizes []int64
	for ws := int64(4 << 10); ws <= 128<<20; ws *= 2 {
		sizes = append(sizes, ws)
	}
	return sizes
}

// cacheInfoFromSweep detects the latency plateaus of a working-set sweep: a
// step is a >= 1.5x jump between consecutive samples. The plateau latencies
// are the cache latencies; the last working set before a jump estimates the
// level's size. The OS knows the exact sizes; they are preferred when
// available.
func cacheInfoFromSweep(sizes, lats []int64, prober machine.MemoryProber) *topo.CacheInfo {
	var stepIdx []int
	for i := 1; i < len(lats); i++ {
		if float64(lats[i]) >= 1.5*float64(lats[i-1]) {
			stepIdx = append(stepIdx, i)
		}
	}
	ci := &topo.CacheInfo{}
	// Latencies: first plateau = L1; then after each step.
	ci.LatL1 = lats[0]
	if len(stepIdx) > 0 {
		ci.LatL2 = lats[stepIdx[0]]
		ci.SizeL1 = sizes[stepIdx[0]-1]
	}
	if len(stepIdx) > 1 {
		ci.LatLLC = lats[stepIdx[1]]
		ci.SizeL2 = sizes[stepIdx[1]-1]
	}
	if len(stepIdx) > 2 {
		ci.SizeLLC = sizes[stepIdx[2]-1]
	}
	if l1, l2, llc := prober.CacheSizes(); l1 > 0 {
		ci.SizeL1, ci.SizeL2, ci.SizeLLC = l1, l2, llc
	}
	return ci
}

// Run implements Plugin.
func (p Cache) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	prober, ok := m.(machine.MemoryProber)
	if !ok {
		return ErrUnsupported{p.Name()}
	}
	loads := p.Loads
	if loads <= 0 {
		loads = 256
	}
	th, err := m.NewThread(0)
	if err != nil {
		return err
	}
	machine.DVFSWait(m, th)
	sizes := cacheSweepSizes()
	lats := make([]int64, len(sizes))
	for i, ws := range sizes {
		ws := ws
		lats[i] = medianOfChunks(16, func(chunk int) int64 {
			return prober.CacheWorkingSetLoads(th, ws, chunk)
		}, loads)
	}
	spec.Cache = cacheInfoFromSweep(sizes, lats, prober)
	return nil
}

// Power gathers RAPL-style power measurements (Section 4): idle power, full
// power, the power of a core's first and second hardware context, and the
// per-socket model used to estimate the power of a placement before
// executing it (Figure 7, POWER policy).
type Power struct{}

// Name implements Plugin.
func (Power) Name() string { return "power" }

// Run implements Plugin.
func (p Power) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	prober, ok := m.(machine.PowerProber)
	if !ok || !prober.PowerAvailable() {
		return ErrUnsupported{p.Name()}
	}
	core0 := t.Cores()[0]
	ctx0 := core0.Contexts[0].ID
	// Distinct-core context on the same socket.
	var ctx1 = -1
	for _, core := range t.Cores() {
		if core != core0 && core.Socket == core0.Socket {
			ctx1 = core.Contexts[0].ID
			break
		}
	}
	_, p1 := prober.PowerEstimate([]int{ctx0}, false)
	info := &topo.PowerInfo{Idle: prober.PowerIdle()}
	if ctx1 >= 0 {
		_, p12 := prober.PowerEstimate([]int{ctx0, ctx1}, false)
		info.PerFirstCtx = p12 - p1
		info.PerSocketBase = p1 - info.PerFirstCtx
	} else {
		info.PerSocketBase = p1
	}
	info.FirstCtx = info.PerFirstCtx
	if len(core0.Contexts) > 1 {
		sib := core0.Contexts[1].ID
		_, pSib := prober.PowerEstimate([]int{ctx0, sib}, false)
		info.PerExtraCtx = pSib - p1
		info.SecondCtx = info.PerExtraCtx
	}
	_, pDram := prober.PowerEstimate([]int{ctx0}, true)
	info.DRAM = pDram - p1
	var all []int
	for _, c := range t.Contexts() {
		all = append(all, c.ID)
	}
	sort.Ints(all)
	_, info.Full = prober.PowerEstimate(all, false)
	spec.Power = info
	return nil
}
