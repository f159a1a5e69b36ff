package machine

import (
	"fmt"

	"repro/internal/sim"
)

// SimMachine adapts a deterministic machine simulator (internal/sim) to the
// Machine interface. This is the backend every test and experiment in this
// repository runs against.
type SimMachine struct {
	S *sim.Sim
}

var (
	_ Machine      = (*SimMachine)(nil)
	_ MemoryProber = (*SimMachine)(nil)
	_ PowerProber  = (*SimMachine)(nil)
	_ FrequencyGHz = (*SimMachine)(nil)
	_ Forker       = (*SimMachine)(nil)
	_ Thread       = (*sim.Thread)(nil)
)

// NewSim creates a simulator-backed machine for the given platform and
// noise seed.
func NewSim(p *sim.Platform, seed uint64) (*SimMachine, error) {
	s, err := sim.New(p, seed)
	if err != nil {
		return nil, err
	}
	return &SimMachine{S: s}, nil
}

// Name returns the simulated platform's name.
func (m *SimMachine) Name() string { return m.S.Platform().Name }

// NumHWContexts returns the simulated context count.
func (m *SimMachine) NumHWContexts() int { return m.S.Platform().NumContexts() }

// NumNodes returns the simulated memory-node count.
func (m *SimMachine) NumNodes() int { return m.S.Platform().NumNodes() }

// FreqMaxGHz returns the platform's maximum frequency.
func (m *SimMachine) FreqMaxGHz() float64 { return m.S.Platform().FreqMaxGHz }

// ForkPair implements Forker: it builds a fresh simulator for the same
// platform whose noise seed is derived from (base seed, x, y), so the pair's
// measurement is independent of every other pair and of execution order. The
// platform description is shared (it is immutable after construction); all
// mutable simulator state — line holders, DVFS ramps, noise counter — is
// private to the fork. The fork, its simulator and the pair's two threads
// are one allocation whatever the platform's size.
func (m *SimMachine) ForkPair(xCtx, yCtx int) (Machine, error) {
	f := &simFork{s: m.S.Fork(sim.PairSeed(m.S.Seed(), xCtx, yCtx))}
	f.S = &f.s
	return &f.SimMachine, nil
}

// simFork is a forked SimMachine together with the simulator it wraps.
type simFork struct {
	SimMachine
	s sim.Sim
}

// Rounds runs Figure 5's loop with the simulator's own lock-step kernel
// (sim.Sim.Rounds).
func (m *SimMachine) Rounds(x, y Thread, reps int, overhead int64, dst []int64) []int64 {
	return m.S.Rounds(m.unwrap(x), m.unwrap(y), reps, overhead, dst)
}

// RdtscOverhead runs the overhead estimate with the simulator's own kernel
// (sim.Sim.RdtscOverhead), which draws no noise.
func (m *SimMachine) RdtscOverhead(t Thread, reps int) int64 {
	return m.S.RdtscOverhead(m.unwrap(t), reps)
}

// NewThread creates a simulated thread pinned to ctx. A *sim.Thread
// implements Thread, so it is handed out as is.
func (m *SimMachine) NewThread(ctx int) (Thread, error) {
	t, err := m.S.NewThread(ctx)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (m *SimMachine) unwrap(t Thread) *sim.Thread {
	st, ok := t.(*sim.Thread)
	if !ok {
		panic(fmt.Sprintf("machine: thread %T does not belong to SimMachine", t))
	}
	return st
}

// SpinSolo runs a calibrated spin loop on one simulated thread.
func (m *SimMachine) SpinSolo(t Thread, units int64) int64 {
	return m.S.SpinSolo(m.unwrap(t), units)
}

// SpinTogether runs the calibrated loop on two simulated threads at once.
func (m *SimMachine) SpinTogether(t1, t2 Thread, units int64) (int64, int64) {
	return m.S.SpinTogether(m.unwrap(t1), m.unwrap(t2), units)
}

// OSView reports the simulated operating system's topology view, including
// the deliberately wrong node mapping on the Opteron. It is not part of
// Machine: MCTOP-ALG never reads it, only the Section 3.6 comparison does.
func (m *SimMachine) OSView() OSView {
	p := m.S.Platform()
	v := OSView{
		Contexts:     p.NumContexts(),
		Nodes:        p.NumNodes(),
		CoreOfCtx:    make([]int, p.NumContexts()),
		SocketOfCtx:  make([]int, p.NumContexts()),
		NodeOfSocket: make([]int, p.Sockets),
	}
	for c := 0; c < p.NumContexts(); c++ {
		v.CoreOfCtx[c] = p.CoreOf(c)
		v.SocketOfCtx[c] = p.SocketOf(c)
	}
	for s := 0; s < p.Sockets; s++ {
		v.NodeOfSocket[s] = p.OSLocalNode(s)
	}
	return v
}

// MemRandomAccess implements MemoryProber.
func (m *SimMachine) MemRandomAccess(t Thread, node, n int) int64 {
	return m.unwrap(t).MemRandomAccess(node, n)
}

// MemSequentialSweep implements MemoryProber.
func (m *SimMachine) MemSequentialSweep(t Thread, node int, bytes int64) int64 {
	return m.unwrap(t).MemSequentialSweep(node, bytes)
}

// CacheWorkingSetLoads implements MemoryProber.
func (m *SimMachine) CacheWorkingSetLoads(t Thread, workingSet int64, n int) int64 {
	return m.unwrap(t).CacheWorkingSetLoads(workingSet, n)
}

// StreamBandwidth implements MemoryProber.
func (m *SimMachine) StreamBandwidth(ctxs []int, node int) float64 {
	return m.S.StreamBandwidth(ctxs, node)
}

// CacheSizes implements MemoryProber.
func (m *SimMachine) CacheSizes() (l1, l2, llc int64) {
	p := m.S.Platform()
	return p.L1Size, p.L2Size, p.LLCSize
}

// PowerAvailable implements PowerProber.
func (m *SimMachine) PowerAvailable() bool { return m.S.Platform().Power.Available() }

// PowerEstimate implements PowerProber.
func (m *SimMachine) PowerEstimate(ctxs []int, withDRAM bool) ([]float64, float64) {
	return m.S.Platform().PowerEstimate(ctxs, withDRAM)
}

// PowerIdle implements PowerProber.
func (m *SimMachine) PowerIdle() float64 { return m.S.Platform().Power.IdleMachine }
