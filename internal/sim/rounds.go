package sim

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
// both CAS costs are the pair's fixed transfer latency plus noise, and a
// repetition is integer arithmetic on the two clocks and busy counters,
// written back when the loop ends.
//
// On a platform that draws neither jitter nor spikes (every generated one
// without :n1) a steady repetition is also the same every time, once x's
// clock leads y's by its own timed reads and CAS, which the first steady
// repetition leaves it doing. The rest of the round is then its last sample
// repeated, clocks and busy counters advanced by a multiple of one
// repetition's, and the noise counter by the two draws each would make.
// The method-by-method loop is kept in rounds_test.go as the oracle this
// one is checked against.
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
	if len(vals) == reps {
		return vals
	}

	// x holds the line: y's CAS takes it from x, x's takes it back.
	p := s.p
	baseY, baseX := p.pairLatency(y.ctx, x.ctx), p.pairLatency(x.ctx, y.ctx)
	if x.ctx == y.ctx {
		baseY, baseX = p.HitCASLat, p.HitCASLat
	}
	rdtsc := p.RdtscOverhead
	quiet := p.tab.noise.d == 0 && p.tab.spuriousBelow == 0
	xNow, yNow := x.now, y.now
	var xBusy, yBusy int64
	for len(vals) < reps {
		// First barrier: both clocks meet at the later one.
		end := max(xNow, yNow)
		xBusy += end - xNow + barrierCost
		yBusy += end - yNow + barrierCost
		// y's CAS, then the second barrier, where x waits out that CAS.
		costY := max(baseY+s.noise(), 1)
		yBusy += baseY + barrierCost
		yNow = end + 2*barrierCost + costY
		xBusy += costY + barrierCost
		// x's timed CAS between two timestamp reads.
		costX := max(baseX+s.noise(), 1)
		xBusy += 2*rdtsc + baseX
		xNow = yNow + 2*rdtsc + costX
		vals = append(vals, max(rdtsc+costX-overhead, 0))

		if quiet {
			// Every repetition left is this one: y waits out x's lead,
			// 2·rdtsc + costX, at the first barrier.
			k := int64(reps - len(vals))
			step := 2*barrierCost + costY + 2*rdtsc + costX
			xNow += k * step
			yNow += k * step
			xBusy += k * (2*barrierCost + costY + 2*rdtsc + baseX)
			yBusy += k * (2*rdtsc + costX + 2*barrierCost + baseY)
			s.opCtr += 2 * uint64(k)
			v := vals[len(vals)-1]
			for len(vals) < reps {
				vals = append(vals, v)
			}
		}
	}
	x.now, y.now = xNow, yNow
	*s.busyOf(x.core) += xBusy
	*s.busyOf(y.core) += yBusy
	return vals
}

// steady reports whether a repetition on x and y costs only the pair's
// fixed latency: both cores at full frequency and x holding the line.
func (s *Sim) steady(x, y *Thread) bool {
	return *s.holder(roundsLine) == x.ctx && s.freqFactor(x.core) >= 1 && s.freqFactor(y.core) >= 1
}
