package sim

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Sim simulates one machine: which context last took each CASed cache line,
// the DVFS state of every core a thread has pinned, a seeded noise source
// and a virtual clock per thread. All methods are deterministic for a fixed
// (platform, seed, call sequence).
//
// Sim is not safe for concurrent use: MCTOP-ALG is single-threaded by
// design ("using more threads increases variability", Section 3.5), and the
// lock-step protocol is expressed through explicit barriers rather than
// real goroutines. A Sim must not be copied once it has made a thread.
//
// A pair measurement pins two threads and ping-pongs one line, so the state
// a fork needs is stored inline: the first line holder, the first two
// cores' DVFS counters and the first two threads. A fork is then one small
// allocation whatever the platform's size, and Refork readies it for the
// next pair in place; the parent simulator, whose threads visit every
// socket, spills past the inline slots.
type Sim struct {
	p     *Platform
	seed  uint64
	opCtr uint64

	// line0 is the first cache line ever CASed and the context holding it.
	line0 lineHolder
	// busy is the accumulated work toward the frequency ramp of the first
	// two cores a thread pinned.
	busy [2]coreBusy
	// threads backs the first two NewThread calls.
	threads [2]Thread

	hasLine0        bool
	nbusy, nthreads uint8

	// spill is nil until the inline slots run out. Keeping the state only
	// a roaming simulator needs behind it holds a Sim to 152 bytes, and
	// machine's fork that wraps one to 168: with Go 1.24 on 2 vCPUs, a
	// burst of fresh pointerful objects of 208 bytes or more allocated
	// about 3× slower than one of 192 bytes or less.
	spill *spill
}

// spill is the simulator state past its inline slots.
type spill struct {
	// holders keeps every line past the first, found by a linear scan.
	holders []lineHolder
	// busy holds every core's busy counter, indexed by core, once a third
	// core is pinned.
	busy []int64
}

type lineHolder struct {
	line uint64
	ctx  int
}

type coreBusy struct {
	core int
	n    int64
}

// New creates a simulator for the platform with the given noise seed.
func New(p *Platform, seed uint64) (*Sim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Sim{p: p, seed: seed}, nil
}

// Fork returns a fresh simulator of the same (already validated) platform
// with the given noise seed. It is returned by value so that a caller can
// embed it and pay one allocation for its own wrapper and the simulator.
func (s *Sim) Fork(seed uint64) Sim {
	return Sim{p: s.p, seed: seed}
}

// Refork makes s, in place, the simulator Fork(seed) returns: every line
// holder, busy counter, thread and the spill are dropped, so a fork that
// roamed is as fresh as a new one. It allocates nothing. The threads it
// hands out next are the same *Thread values as before, so nothing keyed
// by a thread pointer may outlive a Refork.
func (s *Sim) Refork(seed uint64) {
	*s = s.Fork(seed)
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

func (s *Sim) rand() uint64 {
	s.opCtr++
	return rng.Mix(s.seed ^ (s.opCtr * rng.Increment))
}

// noise returns the measurement jitter for one operation: small symmetric
// jitter plus occasional large positive spikes (the "spurious measurements"
// of Section 3.5: OS background processes, interrupts).
func (s *Sim) noise() int64 {
	return s.p.noiseOf(s.rand())
}

// noiseOf is the noise of the draw with random word r: its outcome's
// jitter, plus SpuriousAmp on a spike.
func (p *Platform) noiseOf(r uint64) int64 {
	o := &p.tab.noise
	n := o.jitter(r) - o.amp()
	if o.spike(r) {
		n += p.SpuriousAmp
	}
	return n
}

// freqFactor returns the core's current frequency as a fraction of maximum.
// The core steps through discrete P-states as it accumulates busy cycles;
// once it is through the last one — where a measurement spends nearly all
// of its time — the answer takes no division.
func (s *Sim) freqFactor(core int) float64 {
	if s.p.tab.dvfsDwell == 0 {
		return 1.0 // no ramp: the core's busy counter need not exist yet
	}
	return s.p.tab.freqAt(*s.busyOf(core))
}

// freqAt is the frequency, as a fraction of maximum, of a core that has
// accumulated busy cycles of work.
func (t *tables) freqAt(busy int64) float64 {
	if t.dvfsDwell == 0 || busy >= t.dvfsRampEnd {
		return 1.0
	}
	state := busy / t.dvfsDwell
	return t.freqMin + (1-t.freqMin)*float64(state)/float64(t.dvfsStates)
}

// scale converts a cost expressed in max-frequency cycles into observed
// timestamp-counter cycles at the core's current frequency.
func (s *Sim) scale(cost int64, core int) int64 {
	return scaleBy(cost, s.freqFactor(core))
}

// scaleBy is scale at frequency factor f.
func scaleBy(cost int64, f float64) int64 {
	if f >= 1 {
		return cost
	}
	return int64(float64(cost)/f + 0.5)
}

func (s *Sim) burn(core int, units int64) {
	*s.busyOf(core) += units
}

// busyOf returns the core's busy counter, making it (at zero) on first
// sight. Only the cores of pinned threads are ever asked for.
func (s *Sim) busyOf(core int) *int64 {
	if s.spill != nil && s.spill.busy != nil {
		return &s.spill.busy[core]
	}
	for i := range s.busy[:s.nbusy] {
		if s.busy[i].core == core {
			return &s.busy[i].n
		}
	}
	if int(s.nbusy) < len(s.busy) {
		s.busy[s.nbusy] = coreBusy{core: core}
		s.nbusy++
		return &s.busy[s.nbusy-1].n
	}
	all := make([]int64, s.p.NumCores())
	for _, b := range s.busy {
		all[b.core] = b.n
	}
	s.spilled().busy = all
	return &all[core]
}

// spilled returns the simulator's spill, making it on first use.
func (s *Sim) spilled() *spill {
	if s.spill == nil {
		s.spill = new(spill)
	}
	return s.spill
}

// Thread is a simulated software thread pinned to one hardware context. It
// advances its own virtual clock with every operation.
type Thread struct {
	s    *Sim
	ctx  int
	core int // global core of ctx
	now  int64
}

// NewThread creates a thread pinned to hardware context ctx.
func (s *Sim) NewThread(ctx int) (*Thread, error) {
	t := Thread{s: s, ctx: -1}
	if err := t.Pin(ctx); err != nil {
		return nil, err
	}
	var th *Thread
	if int(s.nthreads) < len(s.threads) {
		th = &s.threads[s.nthreads]
		s.nthreads++
	} else {
		th = new(Thread)
	}
	*th = t
	return th, nil
}

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
	t.core = int(t.s.p.tab.coreOf[ctx])
	if t.s.p.DVFS {
		*t.s.busyOf(t.core) = 0
	}
	t.now += 200 // migration cost
	return nil
}

// Rdtsc returns the thread's timestamp counter and pays the read overhead,
// like the rdtsc instruction (Section 3.5: "reading the timestamp counter
// has a non-negligible latency which must be deducted").
func (t *Thread) Rdtsc() int64 {
	v := t.now
	t.now += t.s.scale(t.s.p.RdtscOverhead, t.core)
	t.s.burn(t.core, t.s.p.RdtscOverhead)
	return v
}

// CAS performs an atomic compare-and-swap on a shared cache line, the probe
// operation of Figure 5, and takes the line. Uncontended coherence is
// deterministic (Section 3, Observation 1), so the cost depends only on who
// held the line: nobody (a miss to the line's home node, line % nodes), this
// very context (a hit), or another context (the pair's transfer latency,
// SMT sibling, same socket or across the interconnect).
func (t *Thread) CAS(line uint64) {
	s, p := t.s, t.s.p
	h := s.holder(line)
	var base int64
	switch {
	case *h < 0:
		base = p.MemLat[p.tab.socketOf[t.ctx]][line%uint64(p.NumNodes())]
	case *h == t.ctx:
		base = p.HitCASLat
	default:
		base = p.pairLatency(t.ctx, *h)
	}
	*h = t.ctx
	cost := s.scale(base, t.core) + s.noise()
	if cost < 1 {
		cost = 1
	}
	t.now += cost
	s.burn(t.core, base)
}

// holder returns the slot naming the context that holds line, -1 for a
// line nobody has taken yet.
func (s *Sim) holder(line uint64) *int {
	if !s.hasLine0 {
		s.line0, s.hasLine0 = lineHolder{line: line, ctx: -1}, true
	}
	if s.line0.line == line {
		return &s.line0.ctx
	}
	sp := s.spilled()
	for i := range sp.holders {
		if sp.holders[i].line == line {
			return &sp.holders[i].ctx
		}
	}
	sp.holders = append(sp.holders, lineHolder{line: line, ctx: -1})
	return &sp.holders[len(sp.holders)-1].ctx
}

// MemRandomAccess performs n dependent cache-missing loads (a random
// linked-list traversal, as the memory-latency plugin allocates) against
// the given node and returns the consumed cycles.
func (t *Thread) MemRandomAccess(node, n int) int64 {
	if node < 0 || node >= t.s.p.NumNodes() {
		panic(fmt.Sprintf("sim: node %d out of range", node))
	}
	sock := t.s.p.tab.socketOf[t.ctx]
	// The loads burn only once they are done, so the core's frequency, and
	// with it every load's scaled latency, holds for the whole loop.
	lat := t.s.scale(t.s.p.MemLat[sock][node], t.core)
	var total int64
	for i := 0; i < n; i++ {
		c := lat + t.s.noise()
		if c < 1 {
			c = 1
		}
		total += c
	}
	t.now += total
	t.s.burn(t.core, total)
	return total
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
		sock := int(t.s.p.tab.socketOf[t.ctx])
		lat = p.MemLat[sock][p.LocalNode(sock)]
	}
	lat = t.s.scale(lat, t.core) // holds for the loop, as in MemRandomAccess
	var total int64
	for i := 0; i < n; i++ {
		c := lat + t.s.noise()/2
		if c < 1 {
			c = 1
		}
		total += c
	}
	t.now += total
	t.s.burn(t.core, total)
	return total
}

// barrierCost is what one spin rendezvous costs each thread past the wait.
const barrierCost = 60

// Barrier synchronizes two threads at a spin-based rendezvous: both clocks
// advance to the later one plus a small constant. The waiting thread keeps
// its core busy (libmctop uses spin barriers precisely to keep DVFS
// ramping).
func (s *Sim) Barrier(t1, t2 *Thread) {
	end := max(t1.now, t2.now)
	for _, t := range [...]*Thread{t1, t2} {
		wait := end - t.now
		s.burn(t.core, wait+barrierCost)
		t.now += wait + s.scale(barrierCost, t.core)
	}
}

// SpinSolo runs a calibrated spin loop on the thread alone and returns its
// observed duration in timestamp cycles — the building block of both the
// DVFS wait and SMT detection (Section 3.5).
func (s *Sim) SpinSolo(t *Thread, units int64) int64 {
	d := s.scale(units, t.core) + s.noise()/2
	if d < 1 {
		d = 1
	}
	t.now += d
	s.burn(t.core, units)
	return d
}

// SpinTogether runs the same calibrated spin loop on both threads
// concurrently and returns the two observed durations. If the threads share
// a core, SMT resource sharing dilates both (the paper's SMT detector).
func (s *Sim) SpinTogether(t1, t2 *Thread, units int64) (int64, int64) {
	s.Barrier(t1, t2)
	sameCore := t1.core == t2.core && t1.ctx != t2.ctx
	run := func(t *Thread) int64 {
		core := t.core
		d := s.scale(units, core)
		if sameCore {
			d = int64(float64(d) * s.p.SMTSlowdown)
		}
		d += s.noise() / 2
		if d < 1 {
			d = 1
		}
		t.now += d
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
	// Counted per core and added in core-id order: float addition is
	// order-sensitive, and a map's iteration order would make the last ulp
	// of a socket's sum vary from call to call.
	t := p.derived()
	ctxPerCore := make([]int, p.NumCores())
	socketActive := make([]bool, p.Sockets)
	for _, c := range ctxs {
		ctxPerCore[t.coreOf[c]]++
		socketActive[t.socketOf[c]] = true
	}
	for s := 0; s < p.Sockets; s++ {
		if !socketActive[s] {
			continue
		}
		perSocket[s] = p.Power.PkgBase
		for _, n := range ctxPerCore[s*p.Cores : (s+1)*p.Cores] {
			if n > 0 {
				perSocket[s] += p.Power.FirstCtxCore + float64(n-1)*p.Power.ExtraCtx
			}
		}
		if withDRAM {
			perSocket[s] += p.Power.DRAMMax
		}
		total += perSocket[s]
	}
	return perSocket, total
}
