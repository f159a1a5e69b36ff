// Package exec is an analytical execution model for phase-structured
// parallel computations over an MCTOP topology.
//
// It is the engine behind the reproductions of Figures 9-12: given a
// placement (a set of hardware contexts) and a workload description
// (compute cycles, memory traffic and its placement, synchronization
// rounds, serial fractions), it predicts execution time and energy using
// only the measurements MCTOP carries — per-core throughput with SMT
// sharing, per-socket memory bandwidths with node contention, communication
// latencies for synchronization, and the power model.
//
// The predictions are first-order by design: the paper's evaluation claims
// (who wins, by roughly what factor, where the crossovers are) depend on
// locality, bandwidth saturation and SMT sharing, which is exactly what the
// model captures. Absolute times were never reproducible off the authors'
// hardware.
//
// Which cores and sockets a placement occupies is read from one
// topo.Occupancy per Estimate, whose slices are ordered by core and socket
// id: every float sum here is taken in that order, so Estimate is a function
// — the same inputs give bit-identical Reports (TestEstimateDeterministic),
// which the drivers' `Cycles <` and ±0.5 % tie rules rely on. The package
// also holds the vocabulary the figure models share: the bandwidth and SMT
// assumptions (MemBW, EffectiveCores), the thread sweep and the best-of
// (policy x threads) loop (sweep.go).
package exec

import (
	"fmt"
	"math"

	"repro/internal/topo"
)

// Data placement selectors for Phase.Data.
const (
	// DataLocal places each thread's traffic on its own socket's node.
	DataLocal = -1
	// DataStriped stripes traffic across all nodes (page interleaving).
	DataStriped = -2
)

// Phase is one parallel phase of a workload.
type Phase struct {
	Name string
	// WorkCycles is the total compute demand, split across threads.
	WorkCycles int64
	// SMTFriendly is how much a core's second (third, ...) SMT context
	// adds to its throughput: 1 = scales perfectly, 0 = adds nothing,
	// negative = the sibling actively hurts (cache-blocking kernels whose
	// working sets thrash the shared L1/L2). Compute-dense kernels are
	// SMT-hostile (~0.1 to -0.2); memory-stalled code benefits (~0.5-0.8).
	SMTFriendly float64
	// Bytes is the total memory traffic, split across threads.
	Bytes int64
	// Data places the traffic: DataLocal, DataStriped, or a node id.
	Data int
	// SyncOps is the number of barrier/reduction rounds; each costs the
	// maximum communication latency among the placed threads.
	SyncOps int64
	// SerialCycles run on one thread (critical sections, allocation locks).
	SerialCycles int64
}

// Workload is a named sequence of phases, repeated Iterations times
// (default 1).
type Workload struct {
	Name       string
	Phases     []Phase
	Iterations int
}

// PhaseReport is the model's per-phase breakdown.
type PhaseReport struct {
	Name          string
	ComputeCycles int64
	MemoryCycles  int64
	SyncCycles    int64
	SerialCycles  int64
	TotalCycles   int64
}

// Report is the model's prediction for one (workload, placement) pair.
type Report struct {
	Workload string
	Cycles   int64
	Seconds  float64
	// EnergyJ is the predicted energy (0 on machines without power data,
	// matching the paper's Intel-only energy reporting).
	EnergyJ  float64
	PerPhase []PhaseReport
}

// Estimate predicts the execution of wl with threads on the given hardware
// contexts. Unpinned slots (-1) are treated as if the OS scattered them
// sequentially.
func Estimate(t *topo.Topology, ctxs []int, wl Workload) (Report, error) {
	if len(ctxs) == 0 {
		return Report{}, fmt.Errorf("exec: no threads placed")
	}
	resolved := make([]int, len(ctxs))
	seq := 0
	for i, c := range ctxs {
		if c < 0 {
			c = seq % t.NumHWContexts()
			seq++
		}
		if t.Context(c) == nil {
			return Report{}, fmt.Errorf("exec: context %d out of range", c)
		}
		resolved[i] = c
	}
	iters := wl.Iterations
	if iters <= 0 {
		iters = 1
	}

	o := t.Occupancy(resolved)
	rep := Report{Workload: wl.Name}
	maxLat := o.MaxLatency()
	for _, ph := range wl.Phases {
		pr := estimatePhase(t, o, ph, maxLat)
		rep.PerPhase = append(rep.PerPhase, pr)
		rep.Cycles += pr.TotalCycles * int64(iters)
	}
	rep.Seconds = float64(rep.Cycles) / (t.ModelFreqGHz() * 1e9)
	rep.EnergyJ = energy(t, o, rep)
	return rep, nil
}

// EffectiveCores is the aggregate compute throughput of the occupied cores
// in "full cores": SMT siblings share a core's pipeline, each adding
// smtFriendly of a core. Summed in core-id order.
func EffectiveCores(o *topo.Occupancy, smtFriendly float64) float64 {
	var eff float64
	for _, n := range o.CtxPerCore {
		if n == 0 {
			continue
		}
		c := 1 + smtFriendly*float64(n-1)
		if c < 0.2 {
			c = 0.2 // a core never drops below a floor, however thrashed
		}
		eff += c
	}
	return eff
}

func estimatePhase(t *topo.Topology, o *topo.Occupancy, ph Phase, maxLat int64) PhaseReport {
	pr := PhaseReport{Name: ph.Name}

	// Compute time: total work over aggregate core throughput.
	if ph.WorkCycles > 0 {
		pr.ComputeCycles = int64(float64(ph.WorkCycles) / EffectiveCores(o, ph.SMTFriendly))
	}

	// Memory time: per-socket traffic over per-socket achievable bandwidth,
	// with destination-node contention; sockets stream in parallel, so the
	// slowest socket bounds the phase.
	if ph.Bytes > 0 {
		pr.MemoryCycles = memoryCycles(t, o, ph)
	}

	pr.SyncCycles = ph.SyncOps * maxLat
	pr.SerialCycles = ph.SerialCycles

	// Compute overlaps with memory (out-of-order cores prefetch);
	// synchronization and serial sections do not.
	overlap := pr.ComputeCycles
	if pr.MemoryCycles > overlap {
		overlap = pr.MemoryCycles
	}
	pr.TotalCycles = overlap + pr.SyncCycles + pr.SerialCycles
	return pr
}

func memoryCycles(t *topo.Topology, o *topo.Occupancy, ph Phase) int64 {
	// One stream per occupied socket, in socket-id order: its traffic is
	// proportional to its thread share.
	type stream struct {
		socket *topo.Socket
		bytes  float64
		node   int // destination node; negative for striped
	}
	var streams []stream
	// Per-destination-node demand for contention sharing.
	nodeDemand := make([]float64, t.NumNodes())
	for id, n := range o.CtxPerSocket {
		if n == 0 {
			continue
		}
		st := stream{t.Socket(id), float64(ph.Bytes) * float64(n) / float64(o.N), ph.Data}
		if ph.Data == DataLocal {
			st.node = st.socket.Local.ID
		}
		if st.node >= 0 && st.node < len(nodeDemand) {
			nodeDemand[st.node] += st.bytes
		}
		streams = append(streams, st)
	}
	var worst float64
	for _, st := range streams {
		var bw float64
		if st.node < 0 {
			// Striped: average path bandwidth over all nodes.
			var sum float64
			for n := 0; n < t.NumNodes(); n++ {
				sum += MemBW(st.socket, n)
			}
			bw = sum / float64(t.NumNodes())
		} else {
			bw = MemBW(st.socket, st.node)
			// The destination node's own bandwidth is shared by demand.
			owner := t.Node(st.node)
			if owner != nil && owner.BW > 0 && nodeDemand[st.node] > 0 {
				share := owner.BW * st.bytes / nodeDemand[st.node]
				if share < bw {
					bw = share
				}
			}
		}
		if bw <= 0 {
			bw = 1
		}
		// bytes / (GB/s) seconds -> cycles: bytes * freqGHz / bw.
		cycles := st.bytes * t.ModelFreqGHz() / bw
		if cycles > worst {
			worst = cycles
		}
	}
	return int64(worst)
}

// MemBW is the bandwidth (GB/s) the models assume from a socket to a memory
// node: the measured one, or a conservative 8 when the bandwidth plugin did
// not run.
func MemBW(s *topo.Socket, node int) float64 {
	if s.MemBW == nil || node >= len(s.MemBW) {
		return 8
	}
	return s.MemBW[node]
}

// energy integrates the power model over the predicted runtime the way
// RAPL would measure it: package power of the active contexts plus DRAM
// power scaled by memory intensity. (The machine's idle wall power is
// deliberately excluded — RAPL reports package and DRAM domains only.)
// Returns 0 without power measurements.
func energy(t *topo.Topology, o *topo.Occupancy, rep Report) float64 {
	pw := t.Power()
	if !pw.Available() {
		return 0
	}
	_, pkg := o.Power(false)
	dram := pw.DRAM * float64(len(o.Sockets)) * rep.MemIntensity()
	return (pkg + dram) * rep.Seconds
}

// MemIntensity is the share of the phases' cycles that were memory-bound,
// in [0, 1].
func (r Report) MemIntensity() float64 {
	var mem, total int64
	for _, ph := range r.PerPhase {
		mem += ph.MemoryCycles
		total += ph.TotalCycles
	}
	if total <= 0 {
		return 0
	}
	return math.Min(1, float64(mem)/float64(total))
}
