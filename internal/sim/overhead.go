package sim

// RdtscOverhead estimates the cost of one timestamp read on t the way
// MCTOP-ALG's protocol does (Section 3.5): reps back-to-back pairs of
// Rdtsc calls and the median of their differences. It leaves t's clock and
// its core's busy counter exactly where those 2·reps calls would.
//
// It reads no noise and allocates nothing. A pair's difference is the read
// overhead scaled to the core's frequency at the pair's first read; busy
// work only grows within the estimate, so the frequency only rises and the
// differences never increase. Their median is therefore the middle one (or
// the middle two) by position, found without taking a sample. The clock
// advance is summed one P-state at a time, and once the core is at full
// speed every remaining read costs exactly RdtscOverhead. The read-by-read
// loop is kept in overhead_test.go as the oracle this one is checked
// against.
func (s *Sim) RdtscOverhead(t *Thread, reps int) int64 {
	if reps < 1 {
		panic("sim: RdtscOverhead needs at least one pair of reads")
	}
	r, tab := s.p.RdtscOverhead, &s.p.tab
	busy := s.busyOf(t.core)
	// pairDiff is the difference the i-th pair of reads observes.
	pairDiff := func(i int) int64 { return scaleBy(r, tab.freqAt(*busy+2*int64(i)*r)) }
	med := pairDiff(reps / 2)
	if reps%2 == 0 {
		med = (pairDiff(reps/2-1) + med) / 2
	}

	now, b := t.now, *busy
	for left := 2 * int64(reps); left > 0 && r > 0; {
		f := tab.freqAt(b)
		if f >= 1 {
			now += left * r
			b += left * r
			break
		}
		// The reads that start below the end of the current P-state.
		end := (b/tab.dvfsDwell + 1) * tab.dvfsDwell
		n := min(left, (end-b+r-1)/r)
		now += n * scaleBy(r, f)
		b += n * r
		left -= n
	}
	t.now, *busy = now, b
	return med
}
