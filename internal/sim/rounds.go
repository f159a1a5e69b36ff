package sim

import (
	"slices"

	"repro/internal/rng"
)

// roundsLine is the shared cache line Rounds ping-pongs. Its id picks the
// home node the pair's very first CAS misses to (line % nodes).
const roundsLine = 0x6c0c6

// Rounds runs reps repetitions of Figure 5's lock-step loop on threads x and
// y and returns them in dst[:0]: per repetition, the timestamp difference
// around x's CAS minus overhead, clamped at 0.
//
// Every repetition is the sequence Barrier, y.CAS, Barrier, x.Rdtsc, x.CAS,
// x.Rdtsc — the same noise draws in the same order, the same clock advances
// and the same burns — but only until the round is steady does it go
// through those methods. Steady means both cores run at full frequency
// (past the DVFS ramp, or on a machine without one) and x holds the line.
// Nothing in the loop pins, busy work only grows and every repetition ends
// with x taking the line back, so a steady round stays steady: from then on
// y's CAS costs the pair's fixed transfer latency plus its draw's noise,
// clamped at 1 cycle, and so does x's.
//
// A steady repetition therefore depends on its two draws only through
// their outcomes (noiseOf), and the loop does nothing else: it hashes the
// two draws, maps them to the two CAS costs and the sample, and sums the
// costs. The clocks and busy counters are written back once, in closed
// form, and the noise counter is stepped by the draws' count. On a
// platform that draws neither jitter nor spikes (every generated one
// without :n1) every outcome is 0, so the costs are known without drawing
// and the loop only repeats one sample; the write-back is the same. The
// method-by-method loop is kept in rounds_test.go as the oracle this one
// is checked against.
func (s *Sim) Rounds(x, y *Thread, reps int, overhead int64, dst []int64) []int64 {
	vals := dst[:0]
	for len(vals) < reps && !s.steady(x, y) {
		s.Barrier(x, y)
		y.CAS(roundsLine)
		s.Barrier(x, y)
		start := x.Rdtsc()
		x.CAS(roundsLine)
		vals = append(vals, max(x.Rdtsc()-start-overhead, 0))
	}
	k := reps - len(vals)
	if k <= 0 {
		return vals
	}

	// x holds the line: y's CAS takes it from x, x's takes it back.
	p := s.p
	baseY, baseX := p.pairLatency(y.ctx, x.ctx), p.pairLatency(x.ctx, y.ctx)
	if x.ctx == y.ctx {
		baseY, baseX = p.HitCASLat, p.HitCASLat
	}
	n := len(vals)
	vals = slices.Grow(vals, k)[:n+k]
	sample := p.RdtscOverhead - overhead // plus x's CAS cost, clamped at 0
	var sumY, sumX, lastX int64          // y's and x's CAS costs summed, x's last
	if p.tab.noise.quiet() {
		costY, costX := max(baseY, 1), max(baseX, 1)
		sumY, sumX, lastX = int64(k)*costY, int64(k)*costX, costX
		v := max(sample+costX, 0)
		for i := n; i < len(vals); i++ {
			vals[i] = v
		}
	} else {
		sumY, sumX, lastX = s.steadyDraws(baseY, baseX, sample, vals[n:])
	}
	s.opCtr += 2 * uint64(k)

	// The write-back. Repetition i, with CAS costs cy_i and cx_i, B the
	// barrier cost and r the timestamp read overhead, does:
	//
	//	end   = max(x, y)                    (first barrier)
	//	busyX += end - x + B,  busyY += end - y + B
	//	y     = end + 2B + cy_i              (y's CAS, second barrier)
	//	busyY += baseY + B,    busyX += cy_i + B
	//	x     = y + 2r + cx_i                (x's timed CAS)
	//	busyX += 2r + baseX
	//
	// After the first repetition x leads y by 2r + cx_i, so every later
	// barrier ends at x: y waits out that lead and x waits for nothing.
	// Summed over the k repetitions, only the first barrier's wait (from
	// the clocks on entry) and x's last lead keep the result from being k
	// times one repetition.
	r, kk := p.RdtscOverhead, int64(k)
	end := max(x.now, y.now)
	*s.busyOf(x.core) += end - x.now + kk*(2*barrierCost+2*r+baseX) + sumY
	*s.busyOf(y.core) += end - y.now + kk*(2*barrierCost+baseY) + (kk-1)*2*r + sumX - lastX
	x.now = end + kk*(2*barrierCost+2*r) + sumY + sumX
	y.now = x.now - 2*r - lastX
	return vals
}

// steadyDraws fills out with the samples of len(out) steady repetitions
// and returns the sums of y's and of x's CAS costs and x's last cost. A
// repetition's two draws are those noise() would make, from the same
// counter, and each is read through its outcome exactly as noiseOf reads
// it; the noise counter is left for the caller to step.
func (s *Sim) steadyDraws(baseY, baseX, sample int64, out []int64) (sumY, sumX, lastX int64) {
	o, spikeAmp := s.p.tab.noise, s.p.SpuriousAmp
	// A CAS costs its base latency plus jitter index j minus NoiseAmp.
	baseY, baseX = baseY-o.amp(), baseX-o.amp()
	seed, ctr := s.seed, s.opCtr*rng.Increment // rand()'s word before the next draw
	for i := range out {
		ctr += rng.Increment
		r := rng.Mix(seed ^ ctr)
		costY := baseY + o.jitter(r)
		if o.spike(r) {
			costY += spikeAmp
		}
		ctr += rng.Increment
		r = rng.Mix(seed ^ ctr)
		costX := baseX + o.jitter(r)
		if o.spike(r) {
			costX += spikeAmp
		}
		costY, costX = max(costY, 1), max(costX, 1)
		sumY += costY
		sumX += costX
		out[i] = max(sample+costX, 0)
		lastX = costX
	}
	return sumY, sumX, lastX
}

// steady reports whether a repetition on x and y costs only the pair's
// fixed latency: both cores at full frequency and x holding the line.
func (s *Sim) steady(x, y *Thread) bool {
	return *s.holder(roundsLine) == x.ctx && s.freqFactor(x.core) >= 1 && s.freqFactor(y.core) >= 1
}
