// Package sim provides a deterministic simulator of cache-coherent
// multi-core machines.
//
// The MCTOP paper measures five physical platforms (Intel Ivy Bridge,
// Westmere and Haswell Xeons, an 8-socket AMD Opteron, and an Oracle SPARC
// T4-4). This package encodes those machines as parameter sets — socket,
// core and SMT structure, the interconnect as socket-to-socket latency and
// hop matrices, per-level communication latencies, per-node memory
// latencies and bandwidths, DVFS behaviour and a power model — and
// simulates the primitives MCTOP-ALG needs: pinned threads with virtual
// cycle clocks, rdtsc, CAS on shared cache lines (charged by which context
// held the line last), spin loops, and barriers.
//
// The simulator is the paper-mandated substitution for hardware we do not
// have: all randomness is seeded, so every experiment in this repository is
// exactly reproducible.
package sim

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/mctoperr"
)

// Numbering describes how an operating system enumerates hardware contexts.
type Numbering int

const (
	// NumberingIntelHalves mirrors Linux on Intel machines: context i and
	// i + (#sockets * #cores) are the two SMT siblings of core i. This is
	// the numbering visible in the paper's Figure 6 latency table, where
	// contexts 0 and 20 share a core on the 40-context Ivy.
	NumberingIntelHalves Numbering = iota
	// NumberingConsecutive mirrors Solaris on SPARC: the T SMT contexts of
	// a core are numbered consecutively (Figure 3: contexts 0..7 on core 0).
	NumberingConsecutive
)

func (n Numbering) String() string {
	switch n {
	case NumberingIntelHalves:
		return "intel-halves"
	case NumberingConsecutive:
		return "consecutive"
	}
	return fmt.Sprintf("Numbering(%d)", int(n))
}

// Power holds the platform's power model (Watts). The model matches what
// libmctop derives from Intel RAPL: a per-socket package base cost, a cost
// for waking the first context of a core, a smaller cost for each extra SMT
// context, and a per-socket DRAM cost under memory-intensive load.
// A zero Power means the platform exposes no energy interface (the paper's
// POWER policy is Intel-only).
type Power struct {
	IdleMachine  float64 // whole machine, nothing running
	PkgBase      float64 // per socket with >= 1 active context
	FirstCtxCore float64 // first active context of a core
	ExtraCtx     float64 // each additional SMT context of an active core
	DRAMMax      float64 // per-socket DRAM power under full memory load
}

// Available reports whether the platform exposes power measurements.
func (p Power) Available() bool { return p.PkgBase > 0 }

// Platform is the ground-truth description of a simulated machine. It
// plays the role of the physical processor: MCTOP-ALG never reads these
// fields — it only observes latencies through the simulator — and the test
// suite then validates the inferred topology against this ground truth.
// Every platform, golden, Custom or generated, describes its interconnect
// one way: the socket matrices SocketLatMatrix and SocketHopMatrix.
type Platform struct {
	Name    string
	Sockets int
	Cores   int // per socket
	SMT     int // hardware contexts per core (1 = no SMT)

	Numbering Numbering

	// Frequency and DVFS.
	FreqMinGHz, FreqMaxGHz float64
	DVFS                   bool
	// RampCycles is how many busy cycles a cold core needs to reach its
	// maximum frequency. This dominates inference time on DVFS machines
	// (Section 3.5: 96 s on Westmere vs 3 s on Ivy).
	RampCycles int64
	// DVFSStates is the number of discrete P-states between minimum and
	// maximum frequency. Real cores step through P-states rather than
	// ramping continuously; discreteness is what makes the spin-loop
	// stability test sound (a slow continuous drift would look stable
	// before reaching the maximum). 0 means 16.
	DVFSStates int

	RdtscOverhead int64 // cycles consumed by one timestamp read

	// Cache hierarchy (per core: L1/L2; per socket: LLC). Sizes in bytes.
	L1Size, L2Size, LLCSize int64
	L1Lat, L2Lat, LLCLat    int64
	HitCASLat               int64 // CAS hit on an owned line

	// Communication latencies (cycles, at max frequency).
	SameCoreLat     int64 // between SMT siblings of one core
	IntraSocketLat  int64 // between cores of one socket (band midpoint)
	IntraSocketBand int64 // deterministic on-die distance spread (+/-)
	CrossSocketBand int64 // deterministic spread around socket latencies

	// SocketLatMatrix and SocketHopMatrix are the interconnect, the only
	// description of it: entry [a][b] is the ground-truth cross-socket
	// latency (cycles), respectively hop count, between sockets a and b,
	// with a zero diagonal. Every platform carries both, Sockets x Sockets.
	// The golden platforms and Custom fill them from a list of direct
	// links (setLinks: diameter <= 2); Generate from a BFS over a mesh,
	// ring or circulant of any diameter.
	SocketLatMatrix [][]int64
	SocketHopMatrix [][]int

	// LocalNodeOf maps each socket to its directly attached memory node.
	// nil means identity. (On the paper's Westmere the local node of socket
	// 0 is node 4 — Figure 2a.)
	LocalNodeOf []int
	// OSNodeOf is the *operating system's* view of the socket-to-node
	// mapping. nil means it equals LocalNodeOf. On the paper's Opteron the
	// OS view is wrong (footnote 1) while MCTOP-ALG infers the truth.
	OSNodeOf []int

	// Memory system: MemLat[s][n] is the load latency (cycles) from a core
	// of socket s to node n; MemBW[s][n] the achievable bandwidth (GB/s).
	MemLat [][]int64
	MemBW  [][]float64
	// CoreStreamBW is the bandwidth one streaming core can draw (GB/s);
	// saturating a node takes ceil(nodeBW/CoreStreamBW) cores.
	CoreStreamBW float64

	Power Power

	// Noise model.
	NoiseAmp     int64   // per-measurement jitter amplitude (cycles)
	SpuriousRate float64 // probability of a large outlier per measurement
	SpuriousAmp  int64   // outlier magnitude (cycles)

	// SMTSlowdown is the factor by which a spin loop slows down when the
	// core's sibling context is busy (used by SMT detection, Section 3.5).
	SMTSlowdown float64

	// validateOnce/validateErr memoize the first Validate so per-fork
	// simulators do not re-pay the O(Sockets^2) consistency scan. Top-level
	// sims may be built concurrently from one shared Platform (the parallel
	// measurement pool does), so the memo must be a real Once, not a flag.
	// tab, the derived tables of tables.go, is part of the same memo.
	validateOnce sync.Once
	validateErr  error
	tab          tables
}

// NumContexts returns the total number of hardware contexts.
func (p *Platform) NumContexts() int { return p.Sockets * p.Cores * p.SMT }

// NumCores returns the total number of physical cores.
func (p *Platform) NumCores() int { return p.Sockets * p.Cores }

// NumNodes returns the number of memory nodes (one per socket on all
// modeled machines).
func (p *Platform) NumNodes() int { return p.Sockets }

// derived returns the platform's derived tables, validating it first if
// nobody has yet. Geometry questions about a platform that fails Validate
// have no answer, so asking one is a bug.
func (p *Platform) derived() *tables {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("sim: geometry query on an invalid platform: %v", err))
	}
	return &p.tab
}

// CoreOf returns the global core id (0..NumCores-1) of a hardware context.
func (p *Platform) CoreOf(ctx int) int { return int(p.derived().coreOf[ctx]) }

// SMTIndexOf returns which SMT context of its core ctx is (0-based).
func (p *Platform) SMTIndexOf(ctx int) int {
	switch p.Numbering {
	case NumberingIntelHalves:
		return ctx / p.NumCores()
	case NumberingConsecutive:
		return ctx % p.SMT
	}
	panic("sim: unknown numbering")
}

// SocketOf returns the socket id of a hardware context.
func (p *Platform) SocketOf(ctx int) int { return int(p.derived().socketOf[ctx]) }

// ContextOf is the inverse of (CoreOf, SMTIndexOf): it returns the hardware
// context id for a global core and SMT index.
func (p *Platform) ContextOf(core, smt int) int {
	switch p.Numbering {
	case NumberingIntelHalves:
		return smt*p.NumCores() + core
	case NumberingConsecutive:
		return core*p.SMT + smt
	}
	panic("sim: unknown numbering")
}

// LocalNode returns the memory node attached to a socket (ground truth).
func (p *Platform) LocalNode(socket int) int {
	if p.LocalNodeOf == nil {
		return socket
	}
	return p.LocalNodeOf[socket]
}

// OSLocalNode returns the node the operating system *claims* is local to a
// socket — possibly wrong (Opteron).
func (p *Platform) OSLocalNode(socket int) int {
	if p.OSNodeOf == nil {
		return p.LocalNode(socket)
	}
	return p.OSNodeOf[socket]
}

// NodeOwner returns the socket a memory node is attached to.
func (p *Platform) NodeOwner(node int) int {
	for s := 0; s < p.Sockets; s++ {
		if p.LocalNode(s) == node {
			return s
		}
	}
	return -1
}

// SocketDistance returns the number of interconnect hops between sockets:
// 0 for the same socket, 1 for a direct link (SocketHopMatrix).
func (p *Platform) SocketDistance(s1, s2 int) int { return p.SocketHopMatrix[s1][s2] }

// SocketLatency is the ground-truth context-to-context communication
// latency between (cores of) two sockets, before per-pair spread.
func (p *Platform) SocketLatency(s1, s2 int) int64 {
	if s1 < 0 || s1 >= p.Sockets || s2 < 0 || s2 >= p.Sockets {
		panic(fmt.Sprintf("sim: socket pair (%d, %d) out of range on %s (%d sockets)", s1, s2, p.Name, p.Sockets))
	}
	return p.derived().socketLat[s1*p.Sockets+s2]
}

// PairLatency returns the ground-truth communication latency between two
// hardware contexts — the value an ideal, noise-free measurement converges
// to, because it is what the simulator charges x's CAS on a line y holds.
// It is the reference used by tests to validate MCTOP-ALG.
func (p *Platform) PairLatency(x, y int) int64 {
	p.derived()
	return p.pairLatency(x, y)
}

// pairLatency is PairLatency on a platform known to be validated, such as a
// simulator's: the CAS path reads it without the memo check.
func (p *Platform) pairLatency(x, y int) int64 {
	if x == y {
		return 0
	}
	t := &p.tab
	cx, cy := int(t.coreOf[x]), int(t.coreOf[y])
	if cx == cy {
		return p.SameCoreLat
	}
	sx, sy := int(t.socketOf[x]), int(t.socketOf[y])
	lcx, lcy := cx-sx*p.Cores, cy-sy*p.Cores
	if sx == sy {
		return p.IntraSocketLat + t.intraOff[lcx*p.Cores+lcy]
	}
	return t.socketLat[sx*p.Sockets+sy] + t.crossOff[lcx+lcy]
}

// Validate checks the internal consistency of a platform definition. The
// first run is memoized (verdict included): simulators are forked once per
// measured pair (hundreds of thousands of times on large platforms), and
// each fork shares the already-validated Platform of its parent. A clean
// verdict also builds the derived tables the simulator and the geometry
// accessors (CoreOf, SocketOf, SocketLatency, PairLatency) read, so they are
// part of the memo: a mutated Platform needs a fresh value to be
// re-validated and re-tabulated.
func (p *Platform) Validate() error {
	p.validateOnce.Do(func() {
		if p.validateErr = p.validate(); p.validateErr == nil {
			p.buildTables()
		}
	})
	return p.validateErr
}

func (p *Platform) validate() error {
	if p.Sockets < 1 || p.Cores < 1 || p.SMT < 1 {
		return fmt.Errorf("sim: %s: non-positive dimensions %dx%dx%d", p.Name, p.Sockets, p.Cores, p.SMT)
	}
	if p.FreqMaxGHz <= 0 || p.FreqMinGHz <= 0 || p.FreqMinGHz > p.FreqMaxGHz {
		return fmt.Errorf("sim: %s: bad frequency range [%g, %g]", p.Name, p.FreqMinGHz, p.FreqMaxGHz)
	}
	if p.RdtscOverhead < 0 {
		return fmt.Errorf("sim: %s: negative RdtscOverhead %d", p.Name, p.RdtscOverhead)
	}
	if p.SMT > 1 && p.SameCoreLat <= 0 {
		return fmt.Errorf("sim: %s: SMT machine without SameCoreLat", p.Name)
	}
	// The interconnect matrices: square, symmetric, zero diagonal, every
	// pair connected, cross latencies strictly above the intra-socket level.
	if len(p.SocketLatMatrix) != p.Sockets || len(p.SocketHopMatrix) != p.Sockets {
		return fmt.Errorf("sim: %s: socket matrices must be %d x %d", p.Name, p.Sockets, p.Sockets)
	}
	for a := 0; a < p.Sockets; a++ {
		if len(p.SocketLatMatrix[a]) != p.Sockets || len(p.SocketHopMatrix[a]) != p.Sockets {
			return fmt.Errorf("sim: %s: socket matrix row %d has wrong width", p.Name, a)
		}
		if p.SocketLatMatrix[a][a] != 0 || p.SocketHopMatrix[a][a] != 0 {
			return fmt.Errorf("sim: %s: socket matrix diagonal must be zero (socket %d)", p.Name, a)
		}
		for b := 0; b < p.Sockets; b++ {
			if a == b {
				continue
			}
			lat, hops := p.SocketLatMatrix[a][b], p.SocketHopMatrix[a][b]
			if lat != p.SocketLatMatrix[b][a] || hops != p.SocketHopMatrix[b][a] {
				return fmt.Errorf("sim: %s: socket matrices not symmetric at (%d,%d)", p.Name, a, b)
			}
			if hops < 1 {
				return fmt.Errorf("sim: %s: sockets %d and %d are disconnected", p.Name, a, b)
			}
			if lat <= p.IntraSocketLat {
				return fmt.Errorf("sim: %s: cross latency %d between sockets %d and %d <= intra-socket %d",
					p.Name, lat, a, b, p.IntraSocketLat)
			}
		}
	}
	if len(p.MemLat) != p.Sockets || len(p.MemBW) != p.Sockets {
		return fmt.Errorf("sim: %s: memory matrices must be %d x %d", p.Name, p.Sockets, p.NumNodes())
	}
	for s := 0; s < p.Sockets; s++ {
		if len(p.MemLat[s]) != p.NumNodes() || len(p.MemBW[s]) != p.NumNodes() {
			return fmt.Errorf("sim: %s: memory row %d has wrong width", p.Name, s)
		}
		for n := 0; n < p.NumNodes(); n++ {
			if p.MemLat[s][n] <= 0 || p.MemBW[s][n] <= 0 {
				return fmt.Errorf("sim: %s: non-positive memory figures for socket %d node %d", p.Name, s, n)
			}
		}
	}
	if p.LocalNodeOf != nil {
		seen := make([]bool, p.Sockets)
		for s, n := range p.LocalNodeOf {
			if n < 0 || n >= p.NumNodes() || seen[n] {
				return fmt.Errorf("sim: %s: LocalNodeOf is not a permutation (socket %d -> %d)", p.Name, s, n)
			}
			seen[n] = true
		}
	}
	// The local node must be the lowest-latency node for every socket —
	// that is how MCTOP-ALG assigns nodes to sockets.
	for s := 0; s < p.Sockets; s++ {
		local := p.LocalNode(s)
		for n := 0; n < p.NumNodes(); n++ {
			if n != local && p.MemLat[s][n] <= p.MemLat[s][local] {
				return fmt.Errorf("sim: %s: node %d not slower than local node %d from socket %d",
					p.Name, n, local, s)
			}
		}
	}
	return nil
}

// link is one direct socket-to-socket link of a hand-described platform,
// with the latency (cycles) a CAS ping-pong between the two sockets
// observes over it.
type link struct {
	a, b int
	lat  int64
}

// setLinks fills the socket matrices from a platform's direct links: a
// listed pair is one hop apart at the link's latency, every other pair of
// distinct sockets two hops apart at twoHop (the "lvl 4" relation of the
// paper's Figures 1 and 2). It runs before memMatrices, which reads the hop
// distances.
func setLinks(p *Platform, twoHop int64, links []link) {
	s := p.Sockets
	p.SocketLatMatrix = make([][]int64, s)
	p.SocketHopMatrix = make([][]int, s)
	for a := 0; a < s; a++ {
		p.SocketLatMatrix[a] = make([]int64, s)
		p.SocketHopMatrix[a] = make([]int, s)
		for b := 0; b < s; b++ {
			if a != b {
				p.SocketLatMatrix[a][b], p.SocketHopMatrix[a][b] = twoHop, 2
			}
		}
	}
	for _, l := range links {
		p.SocketLatMatrix[l.a][l.b], p.SocketHopMatrix[l.a][l.b] = l.lat, 1
		p.SocketLatMatrix[l.b][l.a], p.SocketHopMatrix[l.b][l.a] = l.lat, 1
	}
}

// fullyConnected lists a direct link of latency lat between every pair of
// a platform's sockets.
func fullyConnected(sockets int, lat int64) []link {
	var links []link
	for a := 0; a < sockets; a++ {
		for b := a + 1; b < sockets; b++ {
			links = append(links, link{a, b, lat})
		}
	}
	return links
}

// memMatrices builds MemLat/MemBW from hop distances, with small
// deterministic per-node variation so graphs look like the paper's.
func memMatrices(p *Platform, localLat, hop1Lat, hop2Lat int64, localBW, hop1BW, hop2BW float64) {
	n := p.NumNodes()
	p.MemLat = make([][]int64, p.Sockets)
	p.MemBW = make([][]float64, p.Sockets)
	for s := 0; s < p.Sockets; s++ {
		p.MemLat[s] = make([]int64, n)
		p.MemBW[s] = make([]float64, n)
		for node := 0; node < n; node++ {
			owner := p.NodeOwner(node)
			vary := int64((s+3*node)%5) - 2 // deterministic, in [-2, 2]
			switch p.SocketDistance(s, owner) {
			case 0:
				p.MemLat[s][node] = localLat
				p.MemBW[s][node] = localBW
			case 1:
				p.MemLat[s][node] = hop1Lat + 2*vary
				p.MemBW[s][node] = hop1BW + 0.3*float64(vary)
			default:
				p.MemLat[s][node] = hop2Lat + 2*vary
				p.MemBW[s][node] = hop2BW + 0.3*float64(vary)
			}
		}
	}
}

func defaultNoise(p *Platform) {
	p.NoiseAmp = 2
	p.SpuriousRate = 0.004
	p.SpuriousAmp = 1800
	p.SMTSlowdown = 1.9
}

// Ivy models the paper's 2-socket, 20-core, 40-context Intel Xeon E5-2680
// v2 (Ivy Bridge), 1.2-2.8 GHz: SMT latency 28 cycles, intra-socket ~112,
// cross-socket ~308 (Figure 6), cache latencies 4/12/42 cycles.
func Ivy() *Platform {
	p := &Platform{
		Name: "Ivy", Sockets: 2, Cores: 10, SMT: 2,
		Numbering:  NumberingIntelHalves,
		FreqMinGHz: 1.2, FreqMaxGHz: 2.8, DVFS: true, RampCycles: 3_600_000,
		RdtscOverhead: 24,
		L1Size:        32 << 10, L2Size: 256 << 10, LLCSize: 25 << 20,
		L1Lat: 4, L2Lat: 12, LLCLat: 42, HitCASLat: 12,
		SameCoreLat: 28, IntraSocketLat: 112, IntraSocketBand: 16, CrossSocketBand: 8,
		CoreStreamBW: 4.0,
		Power: Power{
			IdleMachine: 40, PkgBase: 20.1, FirstCtxCore: 3.2, ExtraCtx: 1.46, DRAMMax: 45.25,
		},
	}
	setLinks(p, 0, []link{{0, 1, 308}})
	// Asymmetric DIMM population: socket 0 reaches 15.9 GB/s locally,
	// socket 1 only 8.37 GB/s. This reproduces the placement report of the
	// paper's Figure 7 (bandwidth proportions 0.655/0.345, aggregate
	// 24.28 GB/s).
	p.MemLat = [][]int64{{280, 430}, {430, 280}}
	p.MemBW = [][]float64{{15.9, 7.5}, {12.0, 8.37}}
	defaultNoise(p)
	return p
}

// Westmere models the paper's 8-socket, 80-core, 160-context Intel Xeon
// E7-8867L (Westmere), 1.1-2.1 GHz: SMT 28, intra-socket 116, direct
// cross-socket 341, two-hop 458 cycles (Figure 2). The interconnect is a
// degree-3 Möbius ladder (diameter 2), and the local node of socket s is
// node (s+4) mod 8 — on the paper's machine socket 0's local node is node 4.
func Westmere() *Platform {
	p := &Platform{
		Name: "Westmere", Sockets: 8, Cores: 10, SMT: 2,
		Numbering:  NumberingIntelHalves,
		FreqMinGHz: 1.1, FreqMaxGHz: 2.1, DVFS: true, RampCycles: 5_600_000,
		RdtscOverhead: 28,
		L1Size:        32 << 10, L2Size: 256 << 10, LLCSize: 30 << 20,
		L1Lat: 4, L2Lat: 13, LLCLat: 46, HitCASLat: 14,
		SameCoreLat: 28, IntraSocketLat: 116, IntraSocketBand: 16, CrossSocketBand: 8,
		CoreStreamBW: 3.5,
	}
	var links []link
	for s := 0; s < 8; s++ {
		links = append(links, link{s, (s + 1) % 8, 341})
	}
	for s := 0; s < 4; s++ {
		links = append(links, link{s, s + 4, 341})
	}
	setLinks(p, 458, links)
	p.LocalNodeOf = []int{4, 5, 6, 7, 0, 1, 2, 3}
	memMatrices(p, 369, 497, 600, 13.1, 9.5, 5.5)
	defaultNoise(p)
	return p
}

// Haswell models the paper's 4-socket, 48-core, 96-context Intel Xeon
// E7-4830 v3 (Haswell), 1.2-2.7 GHz, fully connected QPI. The paper shows
// no graph for it (space); latencies here follow the same structure as the
// other Intel machines.
func Haswell() *Platform {
	p := &Platform{
		Name: "Haswell", Sockets: 4, Cores: 12, SMT: 2,
		Numbering:  NumberingIntelHalves,
		FreqMinGHz: 1.2, FreqMaxGHz: 2.7, DVFS: true, RampCycles: 4_500_000,
		RdtscOverhead: 24,
		L1Size:        32 << 10, L2Size: 256 << 10, LLCSize: 30 << 20,
		L1Lat: 4, L2Lat: 12, LLCLat: 44, HitCASLat: 12,
		SameCoreLat: 28, IntraSocketLat: 120, IntraSocketBand: 16, CrossSocketBand: 8,
		CoreStreamBW: 4.5,
		Power: Power{
			IdleMachine: 75, PkgBase: 25.0, FirstCtxCore: 3.0, ExtraCtx: 1.3, DRAMMax: 50.0,
		},
	}
	setLinks(p, 0, fullyConnected(4, 330))
	memMatrices(p, 310, 460, 0, 19.0, 10.5, 0)
	defaultNoise(p)
	return p
}

// Opteron models the paper's 8-socket (4 MCM x 2 dies), 48-core AMD Opteron
// 6172 at a fixed 2.1 GHz, no SMT: intra-socket 117 cycles, 197 to the MCM
// sibling die, 217 over a direct HT link, ~300 for two hops (Figure 1).
// Even dies form a clique, odd dies form a clique, and each die links to
// its MCM sibling. The OS's socket-to-node mapping is deliberately wrong
// (rotated by one) to reproduce footnote 1 of the paper: MCTOP-ALG infers
// the correct mapping, the OS does not.
func Opteron() *Platform {
	p := &Platform{
		Name: "Opteron", Sockets: 8, Cores: 6, SMT: 1,
		Numbering:  NumberingConsecutive,
		FreqMinGHz: 2.1, FreqMaxGHz: 2.1, DVFS: false, RampCycles: 0,
		RdtscOverhead: 30,
		L1Size:        64 << 10, L2Size: 512 << 10, LLCSize: 5 << 20,
		L1Lat: 3, L2Lat: 14, LLCLat: 40, HitCASLat: 14,
		SameCoreLat: 0, IntraSocketLat: 117, IntraSocketBand: 8, CrossSocketBand: 3,
		CoreStreamBW: 2.8,
	}
	var links []link
	for m := 0; m < 4; m++ {
		links = append(links, link{2 * m, 2*m + 1, 197})
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			links = append(links, link{2 * i, 2 * j, 217}, link{2*i + 1, 2*j + 1, 217})
		}
	}
	setLinks(p, 300, links)
	memMatrices(p, 143, 262, 343, 10.9, 2.9, 2.0)
	// The MCM-sibling node is reached over the fast 197-cycle link: closer
	// and faster than generic one-hop nodes (Figure 1a: node 1 at 247
	// cycles, 5.3 GB/s from socket 0).
	for s := 0; s < 8; s++ {
		sib := s ^ 1
		p.MemLat[s][sib] = 247
		p.MemBW[s][sib] = 5.3
	}
	p.OSNodeOf = []int{1, 2, 3, 4, 5, 6, 7, 0} // wrong, on purpose
	defaultNoise(p)
	p.SpuriousRate = 0.002 // no SMT: fewer background-process collisions
	return p
}

// SPARC models the paper's Oracle SPARC T4-4: 4 sockets x 8 cores x 8
// hardware contexts at 3.0 GHz, fully connected. Same-core latency is 101
// cycles (Figure 3), intra-socket 207, local memory at 479 cycles and
// 28.2 GB/s, remote at ~685 cycles and ~15.2 GB/s. The paper shows no
// cross-socket context latency for this machine; 660 cycles is our
// synthetic choice, consistent with the memory figures.
func SPARC() *Platform {
	p := &Platform{
		Name: "SPARC", Sockets: 4, Cores: 8, SMT: 8,
		Numbering:  NumberingConsecutive,
		FreqMinGHz: 3.0, FreqMaxGHz: 3.0, DVFS: false, RampCycles: 0,
		RdtscOverhead: 34,
		L1Size:        16 << 10, L2Size: 256 << 10, LLCSize: 4 << 20,
		L1Lat: 5, L2Lat: 18, LLCLat: 60, HitCASLat: 20,
		SameCoreLat: 101, IntraSocketLat: 207, IntraSocketBand: 12, CrossSocketBand: 8,
		CoreStreamBW: 5.5,
	}
	setLinks(p, 0, fullyConnected(4, 660))
	memMatrices(p, 479, 685, 0, 28.2, 15.2, 0)
	defaultNoise(p)
	return p
}

// Platforms returns the five machines of the paper's evaluation, in the
// order they appear in Section 2.1.
func Platforms() []*Platform {
	return []*Platform{Ivy(), Westmere(), Haswell(), Opteron(), SPARC()}
}

// goldenByName maps each golden platform's name to its constructor, so a
// lookup builds only the platform it returns.
var goldenByName = map[string]func() *Platform{
	"Ivy": Ivy, "Westmere": Westmere, "Haswell": Haswell, "Opteron": Opteron, "SPARC": SPARC,
}

// ByName returns the named platform: one of the case-sensitive short names
// used throughout the paper (Ivy, Westmere, Haswell, Opteron, SPARC), or a
// "gen:" spec naming a synthetic generated platform (see ParseGenName) —
// e.g. "gen:ring:s16:c8:t2". Generated platforms are built on the fly, so
// any component that resolves platforms by name (registry keys, the daemon,
// the CLIs) works on them unchanged.
func ByName(name string) (*Platform, error) {
	if build, ok := goldenByName[name]; ok {
		return build(), nil
	}
	if strings.HasPrefix(name, GenPrefix) {
		spec, err := ParseGenName(name)
		if err != nil {
			return nil, err
		}
		return Generate(spec)
	}
	return nil, fmt.Errorf("sim: %w %q (one of Ivy, Westmere, Haswell, Opteron, SPARC, or a gen: spec)", mctoperr.ErrUnknownPlatform, name)
}

// Custom builds a synthetic fully connected machine for property tests:
// sockets x cores x smt contexts with scaled latency levels. The latency
// scale must be positive; level separations follow the paper's platforms.
func Custom(name string, sockets, cores, smt int, scale int64, numbering Numbering) *Platform {
	if scale <= 0 {
		scale = 1
	}
	p := &Platform{
		Name: name, Sockets: sockets, Cores: cores, SMT: smt,
		Numbering:  numbering,
		FreqMinGHz: 2.0, FreqMaxGHz: 2.0, DVFS: false,
		RdtscOverhead: 20,
		L1Size:        32 << 10, L2Size: 256 << 10, LLCSize: 16 << 20,
		L1Lat: 4, L2Lat: 12, LLCLat: 40, HitCASLat: 12,
		SameCoreLat:     30 * scale,
		IntraSocketLat:  110 * scale,
		CrossSocketBand: 0,
		CoreStreamBW:    4.0,
	}
	if cores >= 6 {
		// Unscaled: the band must stay well inside the clustering gap.
		p.IntraSocketBand = 8
	}
	setLinks(p, 0, fullyConnected(sockets, 320*scale))
	memMatrices(p, 300*scale, 450*scale, 0, 12, 7, 0)
	defaultNoise(p)
	p.SpuriousRate = 0
	return p
}
