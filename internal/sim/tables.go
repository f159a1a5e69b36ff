package sim

import (
	"math"
	"math/bits"
	"sort"
)

// tables holds everything the simulator derives from a Platform's fields
// and then reads once or more per simulated operation. The lock-step loop of
// Figure 5 performs a dozen such reads per repetition, hundreds of
// repetitions per pair and O(N²) pairs per inference, so each one is a slice
// index or a multiplication here instead of a division, a link-list scan or
// a float divide. Validate builds the tables once, after the platform
// checked out clean, and they share its memo: a mutated Platform needs a
// fresh value to be re-validated *and* re-tabulated.
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

	// noise reduces a random word to the jitter span 2*NoiseAmp+1; its
	// divisor is 0 when the platform has no jitter.
	noise fastMod
	// spuriousBelow is the spurious-sample test as an integer: a draw u in
	// [0, 1e6) is an outlier iff u < spuriousBelow.
	spuriousBelow uint64

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
	for a := 0; a < S; a++ {
		for b := 0; b < S; b++ {
			switch {
			case a == b:
				t.socketLat[a*S+b] = p.IntraSocketLat
			case p.SocketLatMatrix != nil:
				t.socketLat[a*S+b] = p.SocketLatMatrix[a][b]
			default:
				t.socketLat[a*S+b] = p.TwoHopLat
			}
		}
	}
	if p.SocketLatMatrix == nil {
		// Backwards, so that of two links between one socket pair the first
		// listed wins, as it does for DirectLink.
		for i := len(p.Links) - 1; i >= 0; i-- {
			l := p.Links[i]
			t.socketLat[l.A*S+l.B] = l.Lat
			t.socketLat[l.B*S+l.A] = l.Lat
		}
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
		t.noise = newFastMod(uint64(2*p.NoiseAmp + 1))
	}
	t.spuriousBelow = spuriousThreshold(p.SpuriousRate)

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

// fastMod computes r % d for a divisor fixed in advance with multiplications
// only (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
// 2019): with m = ceil(2^128 / d), r % d is the top 64 bits of the 192-bit
// product ((m * r) mod 2^128) * d. With a 128-bit m the identity is exact for
// every uint64 r and every d >= 1.
type fastMod struct {
	d        uint64
	mHi, mLo uint64 // m mod 2^128 (m is 2^128 itself only for d == 1, where every remainder is 0)
}

func newFastMod(d uint64) fastMod {
	// floor((2^128 - 1) / d) by long division, one 64-bit digit at a time;
	// adding one makes it the ceiling of 2^128 / d.
	hi, rem := math.MaxUint64/d, math.MaxUint64%d
	lo, _ := bits.Div64(rem, math.MaxUint64, d)
	lo, carry := bits.Add64(lo, 1, 0)
	return fastMod{d: d, mHi: hi + carry, mLo: lo}
}

func (f fastMod) mod(r uint64) uint64 {
	// low = (m * r) mod 2^128.
	h, lowLo := bits.Mul64(f.mLo, r)
	lowHi := h + f.mHi*r
	// (low * d) >> 128.
	h1, _ := bits.Mul64(lowLo, f.d)
	h2, l2 := bits.Mul64(lowHi, f.d)
	_, carry := bits.Add64(h1, l2, 0)
	return h2 + carry
}
