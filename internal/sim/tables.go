package sim

import (
	"sort"

	"repro/internal/rng"
)

// tables holds everything the simulator derives from a Platform's fields
// and then reads once or more per simulated operation. The lock-step loop of
// Figure 5 performs a dozen such reads per repetition, hundreds of
// repetitions per pair and O(N²) pairs per inference, so each one is a slice
// index or integer arithmetic here instead of a matrix row chase or a float
// divide. Validate builds the tables once, after the platform checked out
// clean, and they share its memo: a mutated Platform needs a fresh value to
// be re-validated *and* re-tabulated.
type tables struct {
	coreOf, socketOf []int32 // hardware context -> global core / socket

	// socketLat is the Sockets x Sockets latency between (cores of) two
	// sockets, row-major, with IntraSocketLat on the diagonal.
	socketLat []int64
	// intraOff is the deterministic on-die distance component of the
	// intra-socket latency between two local core indices, Cores x Cores,
	// row-major, spanning [-band, +band]. This reproduces the structured
	// variation visible inside the gray blocks of the paper's Figure 6
	// heatmap.
	intraOff []int64
	// crossOff is the deterministic spread of cross-socket latencies for a
	// pair of local core indices, indexed by their sum.
	crossOff []int64

	// noise reads a noise draw's random word as its outcome.
	noise outcomes

	// DVFS: a core sits dvfsDwell busy cycles in each of dvfsStates P-states
	// and runs at full speed from dvfsRampEnd on. dvfsDwell is 0 on machines
	// without a frequency ramp.
	dvfsDwell, dvfsRampEnd, dvfsStates int64
	freqMin                            float64 // FreqMinGHz / FreqMaxGHz
}

func (p *Platform) buildTables() {
	t := &p.tab

	n := p.NumContexts()
	t.coreOf = make([]int32, n)
	t.socketOf = make([]int32, n)
	for s := 0; s < p.Sockets; s++ {
		for c := 0; c < p.Cores; c++ {
			core := s*p.Cores + c
			for smt := 0; smt < p.SMT; smt++ {
				ctx := p.ContextOf(core, smt)
				t.coreOf[ctx] = int32(core)
				t.socketOf[ctx] = int32(s)
			}
		}
	}

	S := p.Sockets
	t.socketLat = make([]int64, S*S)
	for a, row := range p.SocketLatMatrix {
		copy(t.socketLat[a*S:], row)
		t.socketLat[a*S+a] = p.IntraSocketLat
	}

	// Cores far apart on the ring/mesh communicate slightly slower, cores
	// close together slightly faster: ring distance d in [1, Cores/2] maps
	// linearly onto [-band, +band].
	C := p.Cores
	t.intraOff = make([]int64, C*C)
	if slots := C/2 - 1; slots > 0 && p.IntraSocketBand != 0 {
		for c1 := 0; c1 < C; c1++ {
			for c2 := 0; c2 < C; c2++ {
				if c1 == c2 {
					continue
				}
				d := c1 - c2
				if d < 0 {
					d = -d
				}
				if rd := C - d; rd < d {
					d = rd
				}
				t.intraOff[c1*C+c2] = p.IntraSocketBand * int64(2*(d-1)-slots) / int64(slots)
			}
		}
	}

	t.crossOff = make([]int64, 2*C-1)
	if p.CrossSocketBand != 0 {
		step := 2 * p.CrossSocketBand / 4
		if step == 0 {
			step = 1
		}
		for sum := range t.crossOff {
			t.crossOff[sum] = int64(sum%5)*step - p.CrossSocketBand
		}
	}

	if p.NoiseAmp > 0 {
		t.noise.span = uint64(2*p.NoiseAmp + 1)
	}
	t.noise.spikeBelow = spuriousThreshold(p.SpuriousRate)

	if p.DVFS && p.RampCycles > 0 {
		t.dvfsStates = int64(p.DVFSStates)
		if t.dvfsStates <= 0 {
			t.dvfsStates = 16
		}
		t.dvfsDwell = p.RampCycles / t.dvfsStates
		if t.dvfsDwell <= 0 {
			t.dvfsDwell = 1
		}
		t.dvfsRampEnd = t.dvfsDwell * t.dvfsStates
		t.freqMin = p.FreqMinGHz / p.FreqMaxGHz
	}
}

// outcomes reads the random word of one noise draw as the draw's outcome,
// the only part of the word the simulation sees: a jitter index j, one of
// the 2·NoiseAmp+1 values in [0, 2·NoiseAmp], and a spike bit. The draw's
// noise (noiseOf) is j − NoiseAmp, plus SpuriousAmp on a spike. Two words,
// so a loop keeps it in registers, and its methods inline.
type outcomes struct {
	// span is the number of jitter indices, 2·NoiseAmp+1, or 0 when the
	// platform has no jitter.
	span uint64
	// spikeBelow is the spurious-sample test as an integer: a draw u in
	// [0, 1e6) is an outlier iff u < spikeBelow.
	spikeBelow uint64
}

// jitter is the jitter index of the draw with random word r. It is the
// hardware remainder: on an AMD EPYC (Zen 5) a whole draw — hash, jitter
// and spike test — took about a fifth less with a 64-bit DIV than with a
// multiply-only remainder (Lemire et al., 128-bit reciprocal).
func (o outcomes) jitter(r uint64) int64 {
	if o.span == 0 {
		return 0
	}
	return int64(r % o.span)
}

// amp is the jitter index of zero jitter: NoiseAmp, or 0 when the
// platform has no jitter.
func (o outcomes) amp() int64 {
	return int64(o.span / 2)
}

// spike reports whether the draw with random word r is a spike.
func (o outcomes) spike(r uint64) bool {
	return o.spikeBelow != 0 && rng.Mix(r)%spuriousDraws < o.spikeBelow
}

// quiet reports whether every draw's outcome is jitter index 0 (the only
// one) and no spike.
func (o outcomes) quiet() bool {
	return o.span == 0 && o.spikeBelow == 0
}

// spuriousDraws is the resolution of the spurious-sample draw.
const spuriousDraws = 1_000_000

// spuriousThreshold returns the smallest draw u in [0, spuriousDraws] with
// float64(u)/spuriousDraws >= rate, so that u < threshold is exactly the
// float comparison float64(u)/spuriousDraws < rate for every draw. The
// quotient is monotone in u, which is what lets a search find it.
func spuriousThreshold(rate float64) uint64 {
	if !(rate > 0) {
		return 0
	}
	return uint64(sort.Search(spuriousDraws, func(u int) bool {
		return float64(u)/spuriousDraws >= rate
	}))
}
