// Package machine defines the narrow interface between MCTOP-ALG and the
// hardware it measures.
//
// The paper stresses that the inference algorithm needs only three things
// from the underlying OS: the number of hardware contexts, the number of
// memory nodes, and a way to pin threads to contexts (Section 3). Machine is
// that contract plus the measurements MCTOP-ALG takes: timestamp reads,
// calibrated spin loops, and the two timing kernels of Section 3.5, which
// every machine runs itself — the timestamp-read overhead estimate
// (RdtscOverhead) and Figure 5's lock-step loop (Rounds), whose rounds
// MCTOP-ALG judges with the stability rule. The same algorithm code runs
// against the deterministic simulator (internal/sim) and, best-effort,
// against the real host.
package machine

// Thread is a software thread pinned to one hardware context.
type Thread interface {
	// Pin migrates the thread to another hardware context.
	Pin(ctx int) error
	// Rdtsc reads the timestamp counter. Reading has non-negligible cost
	// which callers must estimate and deduct (Section 3.5).
	Rdtsc() int64
}

// SpinUnit is the calibrated spin-loop length (cycles) of the DVFS wait and
// of MCTOP-ALG's SMT probe.
const SpinUnit = 1_000_000

// DVFSWait spins t until consecutive calibrated loops take the same time,
// i.e. its core reached its maximum frequency (Section 3.5: "libmctop
// explicitly waits for the frequency of both cores to reach its maximum").
// MCTOP-ALG and the enrichment plugins wait before measuring, for the same
// reason.
func DVFSWait(m Machine, t Thread) {
	const maxIters = 64
	prev := m.SpinSolo(t, SpinUnit)
	stable := 0
	for i := 0; i < maxIters; i++ {
		cur := m.SpinSolo(t, SpinUnit)
		diff := cur - prev
		if diff < 0 {
			diff = -diff
		}
		if diff*100 <= prev {
			stable++
			if stable >= 2 {
				return
			}
		} else {
			stable = 0
		}
		prev = cur
	}
}

// Machine is what MCTOP-ALG requires from the platform it runs on. Both
// timing kernels of a pair measurement are its methods, so a machine runs
// them natively — the host on its OS threads, the simulator in closed form
// — and MCTOP-ALG never loops over a Thread's timestamp reads itself.
type Machine interface {
	// Name identifies the machine (platform name or host description).
	Name() string
	// NumHWContexts is the number of schedulable hardware contexts.
	NumHWContexts() int
	// NumNodes is the number of memory nodes the OS reports.
	NumNodes() int
	// NewThread creates a thread pinned to the given context.
	NewThread(ctx int) (Thread, error)
	// SpinSolo runs a calibrated spin loop on t alone and returns the
	// duration observed through the timestamp counter.
	SpinSolo(t Thread, units int64) int64
	// SpinTogether runs the calibrated loop on both threads concurrently
	// and returns both observed durations (the SMT detector's probe).
	SpinTogether(t1, t2 Thread, units int64) (int64, int64)
	// RdtscOverhead estimates the cost of one timestamp read on t: the
	// median of reps back-to-back timestamp-read differences (Section 3.5:
	// the overhead that "must be deducted").
	RdtscOverhead(t Thread, reps int) int64
	// Rounds runs reps repetitions of Figure 5's loop on two of the
	// machine's threads — barrier, y's CAS, barrier, x's CAS between two
	// timestamp reads — and returns them in dst[:0]: per repetition x's
	// timestamp difference minus overhead, clamped at 0.
	Rounds(x, y Thread, reps int, overhead int64, dst []int64) []int64
}

// OSView is the operating system's description of the machine: the
// information libnuma/hwloc-style libraries would return, used only for the
// MCTOP-vs-OS comparison of Section 3.6. It may be wrong (the paper's
// Opteron reports an incorrect core-to-node mapping, footnote 1); MCTOP-ALG
// never consumes it.
type OSView struct {
	Contexts     int
	Nodes        int
	CoreOfCtx    []int // context -> OS core id
	SocketOfCtx  []int // context -> OS socket id
	NodeOfSocket []int // socket -> OS-claimed local memory node
}

// Forker is implemented by machines whose measurements can run
// concurrently. ForkPair returns an independent machine dedicated to one
// measurement, named by a pair of integer tags: it shares no mutable state
// with the parent or with other forks, and its noise stream is a pure
// function of (parent seed, tag0, tag1). MCTOP-ALG measures each (x, y)
// context pair on its own fork, in parallel, with results byte-identical to
// one worker — pair values cannot depend on scheduling order because every
// pair observes its own deterministic stream. A machine that does not fork
// is measured one pair at a time on two threads it re-pins. (The enrichment
// plugins run sequentially on the parent machine and never fork.)
//
// Real hosts must NOT implement Forker: concurrent measurements perturb
// each other through shared caches, interconnect and DVFS (Section 3.5:
// "using more threads increases variability"). The simulator, which models
// exactly one measurement at a time, can.
type Forker interface {
	ForkPair(xCtx, yCtx int) (Machine, error)
}

// MemoryProber is the optional extension used by the memory latency,
// memory bandwidth and cache plugins (Section 4). The simulator implements
// it; a host backend may not.
type MemoryProber interface {
	// MemRandomAccess performs n dependent cache-missing loads against the
	// given node from thread t and returns the consumed cycles.
	MemRandomAccess(t Thread, node, n int) int64
	// MemSequentialSweep streams bytes from the node and returns cycles.
	MemSequentialSweep(t Thread, node int, bytes int64) int64
	// CacheWorkingSetLoads performs n dependent loads within a working set
	// of the given size and returns the consumed cycles.
	CacheWorkingSetLoads(t Thread, workingSet int64, n int) int64
	// StreamBandwidth reports the aggregate bandwidth (GB/s) achieved by
	// the given contexts streaming from the node concurrently.
	StreamBandwidth(ctxs []int, node int) float64
	// CacheSizes returns the OS-reported cache sizes (the cache plugin also
	// "loads and includes the cache sizes from the operating system").
	CacheSizes() (l1, l2, llc int64)
}

// PowerProber is the optional extension used by the power plugin
// (RAPL-style measurements; Intel-only in the paper).
type PowerProber interface {
	// PowerAvailable reports whether the machine exposes power counters.
	PowerAvailable() bool
	// PowerEstimate returns per-socket package power and the total for a
	// set of active contexts, optionally including DRAM.
	PowerEstimate(ctxs []int, withDRAM bool) (perSocket []float64, total float64)
	// PowerIdle returns the whole-machine idle power.
	PowerIdle() float64
}

// FrequencyGHz is implemented by machines that know their nominal maximum
// frequency, letting tools convert cycles to seconds.
type FrequencyGHz interface {
	FreqMaxGHz() float64
}
