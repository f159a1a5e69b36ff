package sim

import (
	"fmt"
	"sort"

	"repro/internal/mesi"
	"repro/internal/rng"
)

// Sim simulates one machine. It owns a MESI coherence engine, per-core DVFS
// state, a seeded noise source and a virtual clock per thread. All methods
// are deterministic for a fixed (platform, seed, call sequence).
//
// Sim is not safe for concurrent use: MCTOP-ALG is single-threaded by
// design ("using more threads increases variability", Section 3.5), and the
// lock-step protocol is expressed through explicit barriers rather than
// real goroutines.
type Sim struct {
	p   *Platform
	coh *mesi.System

	cores    []coreDVFS
	seed     uint64
	opCtr    uint64
	lineHome map[uint64]int

	// TotalThreadCycles accumulates the virtual cycles consumed by all
	// threads; used to report simulated inference runtimes (Section 3.5).
	TotalThreadCycles int64
}

type coreDVFS struct {
	busy int64 // accumulated busy work toward the frequency ramp
}

// topoAdapter exposes the platform's ground truth as a mesi.Topology.
type topoAdapter struct{ p *Platform }

func (t topoAdapter) NumContexts() int     { return t.p.NumContexts() }
func (t topoAdapter) CoreOf(ctx int) int   { return t.p.CoreOf(ctx) }
func (t topoAdapter) SocketOf(ctx int) int { return t.p.SocketOf(ctx) }

// costAdapter derives the MESI transition costs from the platform.
type costAdapter struct{ s *Sim }

func (c costAdapter) HitCost(op mesi.Op) int64 {
	if op == mesi.Load {
		return c.s.p.L1Lat
	}
	return c.s.p.HitCASLat
}

func (c costAdapter) SameCoreTransfer(mesi.Op) int64 { return c.s.p.SameCoreLat }

func (c costAdapter) SameSocketTransfer(_ mesi.Op, _, fromCore, toCore int) int64 {
	p := c.s.p
	return p.IntraSocketLat + p.intraOffset(fromCore%p.Cores, toCore%p.Cores)
}

func (c costAdapter) CrossSocketTransfer(_ mesi.Op, fromSocket, fromCore, toSocket, toCore int) int64 {
	p := c.s.p
	lc1, lc2 := 0, 0
	if fromCore >= 0 {
		lc1 = fromCore % p.Cores
	}
	if toCore >= 0 {
		lc2 = toCore % p.Cores
	}
	return p.SocketLatency(fromSocket, toSocket) + p.crossOffset(lc1, lc2)
}

func (c costAdapter) MemoryAccess(_ mesi.Op, socket int, line uint64) int64 {
	return c.s.p.MemLat[socket][c.s.homeOf(line)]
}

func (c costAdapter) UpgradeCost(_ mesi.Op, crossSocket bool) int64 {
	p := c.s.p
	if !crossSocket {
		return p.IntraSocketLat
	}
	// Worst cross-socket latency, memoized by Validate (which always runs
	// before the first operation) so the hot coherence path never rescans
	// the link list.
	return p.maxCrossLat
}

// New creates a simulator for the platform with the given noise seed.
func New(p *Platform, seed uint64) (*Sim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		p:        p,
		cores:    make([]coreDVFS, p.NumCores()),
		seed:     seed,
		lineHome: make(map[uint64]int),
	}
	s.coh = mesi.New(topoAdapter{p}, costAdapter{s})
	return s, nil
}

// Platform returns the simulated machine's ground-truth description.
func (s *Sim) Platform() *Platform { return s.p }

// Seed returns the simulator's noise seed, so callers can derive seeds for
// independent forks (see PairSeed).
func (s *Sim) Seed() uint64 { return s.seed }

// PairSeed derives the noise seed of an independent per-pair measurement
// simulator from a base seed and an (x, y) context pair. The derivation is a
// pure function of its inputs, so per-pair forks observe the same noise
// stream no matter how many of them run, in which order, or on how many OS
// threads — the property that lets the parallel MCTOP-ALG measurement phase
// stay byte-identical to the sequential one.
func PairSeed(seed uint64, x, y int) uint64 {
	return rng.Mix(rng.Mix(seed^(uint64(x)<<32)) ^ uint64(y))
}

// Coherence exposes the underlying MESI engine (used by the lock-contention
// simulator, which shares the machine's coherence state).
func (s *Sim) Coherence() *mesi.System { return s.coh }

// SetLineHome places a cache line's backing memory on a node, the way
// first-touch or explicit NUMA allocation would.
func (s *Sim) SetLineHome(line uint64, node int) {
	if node < 0 || node >= s.p.NumNodes() {
		panic(fmt.Sprintf("sim: node %d out of range", node))
	}
	s.lineHome[line] = node
}

func (s *Sim) homeOf(line uint64) int {
	if n, ok := s.lineHome[line]; ok {
		return n
	}
	return int(line % uint64(s.p.NumNodes()))
}

func (s *Sim) rand() uint64 {
	s.opCtr++
	return rng.Mix(s.seed ^ (s.opCtr * rng.Increment))
}

// noise returns the measurement jitter for one operation: small symmetric
// jitter plus occasional large positive spikes (the "spurious measurements"
// of Section 3.5: OS background processes, interrupts).
func (s *Sim) noise() int64 {
	r := s.rand()
	amp := s.p.NoiseAmp
	var n int64
	if amp > 0 {
		n = int64(r%uint64(2*amp+1)) - amp
	}
	if s.p.SpuriousRate > 0 {
		if float64(rng.Mix(r)%1_000_000)/1_000_000 < s.p.SpuriousRate {
			n += s.p.SpuriousAmp
		}
	}
	return n
}

// freqFactor returns the core's current frequency as a fraction of maximum.
// The core steps through discrete P-states as it accumulates busy cycles.
func (s *Sim) freqFactor(core int) float64 {
	if !s.p.DVFS || s.p.RampCycles <= 0 {
		return 1.0
	}
	states := s.p.DVFSStates
	if states <= 0 {
		states = 16
	}
	dwell := s.p.RampCycles / int64(states)
	if dwell <= 0 {
		dwell = 1
	}
	state := s.cores[core].busy / dwell
	if state >= int64(states) {
		return 1.0
	}
	min := s.p.FreqMinGHz / s.p.FreqMaxGHz
	return min + (1-min)*float64(state)/float64(states)
}

// scale converts a cost expressed in max-frequency cycles into observed
// timestamp-counter cycles at the core's current frequency.
func (s *Sim) scale(cost int64, core int) int64 {
	f := s.freqFactor(core)
	if f >= 1 {
		return cost
	}
	return int64(float64(cost)/f + 0.5)
}

func (s *Sim) burn(core int, units int64) {
	s.cores[core].busy += units
}

// Thread is a simulated software thread pinned to one hardware context. It
// advances its own virtual clock with every operation.
type Thread struct {
	s   *Sim
	ctx int
	now int64
}

// NewThread creates a thread pinned to hardware context ctx.
func (s *Sim) NewThread(ctx int) (*Thread, error) {
	t := &Thread{s: s, ctx: -1}
	if err := t.Pin(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// Ctx returns the context the thread is currently pinned to.
func (t *Thread) Ctx() int { return t.ctx }

// Now returns the thread's virtual clock in cycles. Harness-only; the
// inference algorithm must use Rdtsc like real code would.
func (t *Thread) Now() int64 { return t.now }

// Pin moves the thread to another hardware context. On DVFS machines the
// target core starts cold (minimum frequency): real cores enter low-power
// states the moment they idle, which is why libmctop re-runs its frequency
// wait after every migration.
func (t *Thread) Pin(ctx int) error {
	if ctx < 0 || ctx >= t.s.p.NumContexts() {
		return fmt.Errorf("sim: cannot pin to context %d on %s (%d contexts)",
			ctx, t.s.p.Name, t.s.p.NumContexts())
	}
	if ctx == t.ctx {
		return nil
	}
	t.ctx = ctx
	if t.s.p.DVFS {
		t.s.cores[t.s.p.CoreOf(ctx)].busy = 0
	}
	t.advance(200) // migration cost
	return nil
}

func (t *Thread) advance(cycles int64) {
	t.now += cycles
	t.s.TotalThreadCycles += cycles
}

// Rdtsc returns the thread's timestamp counter and pays the read overhead,
// like the rdtsc instruction (Section 3.5: "reading the timestamp counter
// has a non-negligible latency which must be deducted").
func (t *Thread) Rdtsc() int64 {
	v := t.now
	core := t.s.p.CoreOf(t.ctx)
	t.advance(t.s.scale(t.s.p.RdtscOverhead, core))
	t.s.burn(core, t.s.p.RdtscOverhead)
	return v
}

func (t *Thread) access(line uint64, op mesi.Op) {
	core := t.s.p.CoreOf(t.ctx)
	base := t.s.coh.Access(t.ctx, line, op)
	cost := t.s.scale(base, core) + t.s.noise()
	if cost < 1 {
		cost = 1
	}
	t.advance(cost)
	t.s.burn(core, base)
}

// CAS performs an atomic compare-and-swap on a shared cache line, the probe
// operation of Figure 5 (full fence, brings the line to Modified).
func (t *Thread) CAS(line uint64) { t.access(line, mesi.CAS) }

// Load performs a plain read of a shared cache line.
func (t *Thread) Load(line uint64) { t.access(line, mesi.Load) }

// Store performs a plain write of a shared cache line.
func (t *Thread) Store(line uint64) { t.access(line, mesi.Store) }

// SpinWork busy-spins for the given number of work units (cycles at max
// frequency). Under DVFS the observed duration shrinks as the core ramps.
func (t *Thread) SpinWork(units int64) {
	core := t.s.p.CoreOf(t.ctx)
	t.advance(t.s.scale(units, core))
	t.s.burn(core, units)
}

// MemRandomAccess performs n dependent cache-missing loads (a random
// linked-list traversal, as the memory-latency plugin allocates) against
// the given node and returns the consumed cycles.
func (t *Thread) MemRandomAccess(node, n int) int64 {
	if node < 0 || node >= t.s.p.NumNodes() {
		panic(fmt.Sprintf("sim: node %d out of range", node))
	}
	core := t.s.p.CoreOf(t.ctx)
	sock := t.s.p.SocketOf(t.ctx)
	var total int64
	for i := 0; i < n; i++ {
		c := t.s.scale(t.s.p.MemLat[sock][node], core) + t.s.noise()
		if c < 1 {
			c = 1
		}
		total += c
	}
	t.advance(total)
	t.s.burn(core, total)
	return total
}

// MemSequentialSweep streams the given number of bytes from a node (the
// memory-bandwidth plugin's access pattern) and returns the consumed
// cycles.
func (t *Thread) MemSequentialSweep(node int, bytes int64) int64 {
	if node < 0 || node >= t.s.p.NumNodes() {
		panic(fmt.Sprintf("sim: node %d out of range", node))
	}
	p := t.s.p
	sock := p.SocketOf(t.ctx)
	bw := p.MemBW[sock][node]
	if p.CoreStreamBW > 0 && p.CoreStreamBW < bw {
		bw = p.CoreStreamBW // one core cannot saturate the node
	}
	cycles := int64(float64(bytes) * p.FreqMaxGHz / bw)
	core := p.CoreOf(t.ctx)
	cycles = t.s.scale(cycles, core)
	t.advance(cycles)
	t.s.burn(core, cycles)
	return cycles
}

// CacheWorkingSetLoads performs n dependent loads over a working set of the
// given size, returning the consumed cycles. The per-load latency steps
// through L1/L2/LLC/memory as the working set outgrows each level — the
// signal the cache plugin detects.
func (t *Thread) CacheWorkingSetLoads(workingSet int64, n int) int64 {
	p := t.s.p
	var lat int64
	switch {
	case workingSet <= p.L1Size:
		lat = p.L1Lat
	case workingSet <= p.L2Size:
		lat = p.L2Lat
	case workingSet <= p.LLCSize:
		lat = p.LLCLat
	default:
		lat = p.MemLat[p.SocketOf(t.ctx)][p.LocalNode(p.SocketOf(t.ctx))]
	}
	core := p.CoreOf(t.ctx)
	var total int64
	for i := 0; i < n; i++ {
		c := t.s.scale(lat, core) + t.s.noise()/2
		if c < 1 {
			c = 1
		}
		total += c
	}
	t.advance(total)
	t.s.burn(core, total)
	return total
}

// Barrier synchronizes threads at a spin-based rendezvous: every clock
// advances to the maximum plus a small constant. Waiting threads keep their
// cores busy (libmctop uses spin barriers precisely to keep DVFS ramping).
func (s *Sim) Barrier(ts ...*Thread) {
	const barrierCost = 60
	var max int64
	for _, t := range ts {
		if t.now > max {
			max = t.now
		}
	}
	for _, t := range ts {
		core := s.p.CoreOf(t.ctx)
		wait := max - t.now
		s.burn(core, wait+barrierCost)
		t.advance(wait + s.scale(barrierCost, core))
	}
}

// Barrier2 is Barrier for exactly two threads without the variadic slice —
// the measurement loop calls it twice per repetition, and the allocation
// was the dominant garbage source of large-platform inference.
func (s *Sim) Barrier2(t1, t2 *Thread) {
	const barrierCost = 60
	max := t1.now
	if t2.now > max {
		max = t2.now
	}
	for _, t := range [...]*Thread{t1, t2} {
		core := s.p.CoreOf(t.ctx)
		wait := max - t.now
		s.burn(core, wait+barrierCost)
		t.advance(wait + s.scale(barrierCost, core))
	}
}

// SpinSolo runs a calibrated spin loop on the thread alone and returns its
// observed duration in timestamp cycles — the building block of both the
// DVFS wait and SMT detection (Section 3.5).
func (s *Sim) SpinSolo(t *Thread, units int64) int64 {
	core := s.p.CoreOf(t.ctx)
	d := s.scale(units, core) + s.noise()/2
	if d < 1 {
		d = 1
	}
	t.advance(d)
	s.burn(core, units)
	return d
}

// SpinTogether runs the same calibrated spin loop on both threads
// concurrently and returns the two observed durations. If the threads share
// a core, SMT resource sharing dilates both (the paper's SMT detector).
func (s *Sim) SpinTogether(t1, t2 *Thread, units int64) (int64, int64) {
	s.Barrier(t1, t2)
	sameCore := s.p.CoreOf(t1.ctx) == s.p.CoreOf(t2.ctx) && t1.ctx != t2.ctx
	run := func(t *Thread) int64 {
		core := s.p.CoreOf(t.ctx)
		d := s.scale(units, core)
		if sameCore {
			d = int64(float64(d) * s.p.SMTSlowdown)
		}
		d += s.noise() / 2
		if d < 1 {
			d = 1
		}
		t.advance(d)
		s.burn(core, units)
		return d
	}
	return run(t1), run(t2)
}

// StreamBandwidth returns the aggregate bandwidth (GB/s) the given hardware
// contexts achieve streaming from one node concurrently: per-core stream
// limits, per-socket paths (local bus or interconnect link) and the node's
// own bandwidth all cap the total.
func (s *Sim) StreamBandwidth(ctxs []int, node int) float64 {
	if node < 0 || node >= s.p.NumNodes() {
		panic(fmt.Sprintf("sim: node %d out of range", node))
	}
	coresBySocket := make(map[int]map[int]bool)
	for _, c := range ctxs {
		sock := s.p.SocketOf(c)
		if coresBySocket[sock] == nil {
			coresBySocket[sock] = make(map[int]bool)
		}
		coresBySocket[sock][s.p.CoreOf(c)] = true
	}
	socks := make([]int, 0, len(coresBySocket))
	for sock := range coresBySocket {
		socks = append(socks, sock)
	}
	sort.Ints(socks) // float addition is order-sensitive; keep the sum stable
	var total float64
	for _, sock := range socks {
		demand := float64(len(coresBySocket[sock])) * s.p.CoreStreamBW
		path := s.p.MemBW[sock][node]
		if demand > path {
			demand = path
		}
		total += demand
	}
	owner := s.p.NodeOwner(node)
	if owner >= 0 {
		if cap := s.p.MemBW[owner][node]; total > cap {
			total = cap
		}
	}
	return total
}

// SimulatedSeconds converts virtual cycles to seconds of machine time at
// the platform's maximum frequency (the TSC is invariant).
func (s *Sim) SimulatedSeconds(cycles int64) float64 {
	return float64(cycles) / (s.p.FreqMaxGHz * 1e9)
}

// PowerEstimate returns per-socket package power (Watts) for a set of
// active hardware contexts, plus the total, optionally including DRAM.
// This is the model behind Figure 7's "Max pow" lines and the POWER policy.
func (p *Platform) PowerEstimate(ctxs []int, withDRAM bool) (perSocket []float64, total float64) {
	perSocket = make([]float64, p.Sockets)
	if !p.Power.Available() {
		return perSocket, 0
	}
	ctxPerCore := make(map[int]int)
	socketActive := make([]bool, p.Sockets)
	for _, c := range ctxs {
		ctxPerCore[p.CoreOf(c)]++
		socketActive[p.SocketOf(c)] = true
	}
	for s := 0; s < p.Sockets; s++ {
		if socketActive[s] {
			perSocket[s] = p.Power.PkgBase
		}
	}
	for core, n := range ctxPerCore {
		sock := core / p.Cores
		perSocket[sock] += p.Power.FirstCtxCore + float64(n-1)*p.Power.ExtraCtx
	}
	for s := 0; s < p.Sockets; s++ {
		if withDRAM && socketActive[s] {
			perSocket[s] += p.Power.DRAMMax
		}
		total += perSocket[s]
	}
	return perSocket, total
}
