package sim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The arithmetic definitions the derived tables replaced, kept as the
// references the tables are checked against.

func coreOfFormula(p *Platform, ctx int) int {
	switch p.Numbering {
	case NumberingIntelHalves:
		return ctx % p.NumCores()
	case NumberingConsecutive:
		return ctx / p.SMT
	}
	panic("sim: unknown numbering")
}

func socketOfFormula(p *Platform, ctx int) int { return coreOfFormula(p, ctx) / p.Cores }

func socketLatencyFormula(p *Platform, s1, s2 int) int64 {
	if s1 == s2 {
		return p.IntraSocketLat
	}
	return p.SocketLatMatrix[s1][s2]
}

// intraOffsetFormula: cores far apart on the ring/mesh communicate slightly
// slower, cores close together slightly faster, spanning [-band, +band].
func intraOffsetFormula(p *Platform, c1, c2 int) int64 {
	if c1 == c2 {
		return 0
	}
	slots := p.Cores/2 - 1
	if slots <= 0 || p.IntraSocketBand == 0 {
		return 0
	}
	d := c1 - c2
	if d < 0 {
		d = -d
	}
	if rd := p.Cores - d; rd < d {
		d = rd // ring distance
	}
	// d in [1, Cores/2] -> offset in [-band, +band].
	return p.IntraSocketBand * int64(2*(d-1)-slots) / int64(slots)
}

func crossOffsetFormula(p *Platform, c1, c2 int) int64 {
	if p.CrossSocketBand == 0 {
		return 0
	}
	span := 2 * p.CrossSocketBand
	step := span / 4
	if step == 0 {
		step = 1
	}
	return int64((c1+c2)%5)*step - p.CrossSocketBand
}

func pairLatencyFormula(p *Platform, x, y int) int64 {
	if x == y {
		return 0
	}
	cx, cy := coreOfFormula(p, x), coreOfFormula(p, y)
	if cx == cy {
		return p.SameCoreLat
	}
	sx, sy := socketOfFormula(p, x), socketOfFormula(p, y)
	lcx, lcy := cx%p.Cores, cy%p.Cores
	if sx == sy {
		return p.IntraSocketLat + intraOffsetFormula(p, lcx, lcy)
	}
	return socketLatencyFormula(p, sx, sy) + crossOffsetFormula(p, lcx, lcy)
}

// tablePlatforms is the five goldens, one generated platform per
// interconnect kind, and Custom in both numberings.
func tablePlatforms(t *testing.T) []*Platform {
	t.Helper()
	ps := Platforms()
	for _, name := range []string{"gen:mesh:s6:c6:t2:v3", "gen:ring:s5:c4:t2", "gen:circulant:s8:c8:t1"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return append(ps,
		Custom("halves", 3, 6, 2, 2, NumberingIntelHalves),
		Custom("consecutive", 2, 7, 4, 1, NumberingConsecutive))
}

func TestPlatformTablesMatchFormulas(t *testing.T) {
	for _, p := range tablePlatforms(t) {
		n := p.NumContexts()
		for x := 0; x < n; x++ {
			if got, want := p.CoreOf(x), coreOfFormula(p, x); got != want {
				t.Fatalf("%s: CoreOf(%d) = %d, formula %d", p.Name, x, got, want)
			}
			if got, want := p.SocketOf(x), socketOfFormula(p, x); got != want {
				t.Fatalf("%s: SocketOf(%d) = %d, formula %d", p.Name, x, got, want)
			}
			for y := 0; y < n; y++ {
				if got, want := p.PairLatency(x, y), pairLatencyFormula(p, x, y); got != want {
					t.Fatalf("%s: PairLatency(%d, %d) = %d, formula %d", p.Name, x, y, got, want)
				}
			}
		}
		for a := 0; a < p.Sockets; a++ {
			for b := 0; b < p.Sockets; b++ {
				if got, want := p.SocketLatency(a, b), socketLatencyFormula(p, a, b); got != want {
					t.Fatalf("%s: SocketLatency(%d, %d) = %d, formula %d", p.Name, a, b, got, want)
				}
			}
		}
		tab := p.derived()
		for c1 := 0; c1 < p.Cores; c1++ {
			for c2 := 0; c2 < p.Cores; c2++ {
				if got, want := tab.intraOff[c1*p.Cores+c2], intraOffsetFormula(p, c1, c2); got != want {
					t.Fatalf("%s: intraOff(%d, %d) = %d, formula %d", p.Name, c1, c2, got, want)
				}
				if got, want := tab.crossOff[c1+c2], crossOffsetFormula(p, c1, c2); got != want {
					t.Fatalf("%s: crossOff(%d, %d) = %d, formula %d", p.Name, c1, c2, got, want)
				}
			}
		}
	}
}

// TestNoiseModulusExact: a draw's noise, read through its outcome, is the
// definition written out — jitter (r mod (2·NoiseAmp+1)) − NoiseAmp (0
// without jitter), plus SpuriousAmp iff float64(Mix(r) mod 10^6)/10^6 <
// SpuriousRate — for every platform's noise model and for amplitudes at the
// edges (up to a span past 2^63), on extreme and random words.
func TestNoiseModulusExact(t *testing.T) {
	type model struct {
		amp, spikeAmp int64
		rate          float64
	}
	models := []model{{0, 0, 0}, {1, 7, 0.5}, {2, 1800, 0.004}, {120, 1800, 0.02}, {1 << 31, 5, 1e-6}, {1<<62 + 3, 1, 0.3}, {0, 1800, 0.05}}
	for _, p := range tablePlatforms(t) {
		models = append(models, model{p.NoiseAmp, p.SpuriousAmp, p.SpuriousRate})
	}
	extremes := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<63 + 4, 1<<63 + 5, 1<<63 + 6,
		math.MaxUint64 - 2, math.MaxUint64 - 1, math.MaxUint64}
	for _, m := range models {
		p := Custom("noise", 1, 2, 1, 1, NumberingIntelHalves)
		p.NoiseAmp, p.SpuriousAmp, p.SpuriousRate = m.amp, m.spikeAmp, m.rate
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		span := uint64(2*m.amp + 1) // wraps like the table's for amplitudes past 2^62
		check := func(r uint64) {
			var want int64
			if m.amp > 0 {
				want = int64(r%span) - m.amp
			}
			if float64(rng.Mix(r)%1_000_000)/1_000_000 < m.rate {
				want += m.spikeAmp
			}
			if got := p.noiseOf(r); got != want {
				t.Fatalf("%+v: noiseOf(%d) = %d, want %d", m, r, got, want)
			}
		}
		for _, r := range extremes {
			check(r)
			check(r * span) // wraps for large operands, which is as good a probe as any
			check(span - 1)
			check(span + 1)
		}
		for i := uint64(1); i <= 200_000; i++ {
			check(rng.Mix(i ^ span))
		}
	}
}

// TestSpuriousThresholdExact: the integer threshold decides every possible
// draw the way the float comparison it replaced did.
func TestSpuriousThresholdExact(t *testing.T) {
	rates := []float64{0, -1, 1, 2, 1e-7, 0.30, 0.08, 0.02, math.NaN()}
	for _, p := range tablePlatforms(t) {
		rates = append(rates, p.SpuriousRate)
	}
	for _, rate := range rates {
		below := spuriousThreshold(rate)
		for u := uint64(0); u < spuriousDraws; u++ {
			want := rate > 0 && float64(u)/1_000_000 < rate
			if got := u < below; got != want {
				t.Fatalf("rate %g, draw %d: integer test says %v, float comparison %v (threshold %d)", rate, u, got, want, below)
			}
		}
	}
}

// TestPowerEstimateDeterministic: the estimate for a context set is the
// same float, to the last bit, on every call. Summing per-core terms in map
// iteration order made the last ulp vary for some prefix lengths on Ivy
// (22, 25, 26, ...) and Haswell (54, 55, ...).
func TestPowerEstimateDeterministic(t *testing.T) {
	for _, p := range Platforms() {
		if !p.Power.Available() {
			continue
		}
		ctxs := make([]int, p.NumContexts())
		for i := range ctxs {
			ctxs[i] = i
		}
		for k := 1; k <= len(ctxs); k++ {
			for _, withDRAM := range []bool{false, true} {
				per0, total0 := p.PowerEstimate(ctxs[:k], withDRAM)
				for call := 1; call < 50; call++ {
					per, total := p.PowerEstimate(ctxs[:k], withDRAM)
					if math.Float64bits(total) != math.Float64bits(total0) {
						t.Fatalf("%s: contexts 0..%d: total %v on call %d, %v on the first", p.Name, k-1, total, call, total0)
					}
					for s := range per {
						if math.Float64bits(per[s]) != math.Float64bits(per0[s]) {
							t.Fatalf("%s: contexts 0..%d: socket %d draws %v on call %d, %v on the first", p.Name, k-1, s, per[s], call, per0[s])
						}
					}
				}
			}
		}
	}
}
