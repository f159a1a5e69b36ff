package mctopalg

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// sampledOptions returns test options with the sampled mode switched on and
// its size floor lowered, through the in-package seam, so that the small
// platforms used in tests actually take the sampled path.
func sampledOptions() Options {
	o := testOptions()
	o.Sampling = true
	o.floor = 8
	return o
}

func inferWith(t *testing.T, p *sim.Platform, seed uint64, opt Options) *Result {
	t.Helper()
	m, err := machine.NewSim(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Infer(m, opt)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res
}

// requireSampledEqual asserts the exhaustive-equality guarantee: the raw
// latency table, the clusters, the normalized table, and the serialized
// topology of a sampled inference must be byte-identical to the exhaustive
// inference of the same (platform, seed).
func requireSampledEqual(t *testing.T, p *sim.Platform, seed uint64, exh, smp *Result) {
	t.Helper()
	if !smp.Sampled {
		t.Fatalf("%s: sampled run did not take the sampled path", p.Name)
	}
	if exh.Sampled {
		t.Fatalf("%s: exhaustive run took the sampled path", p.Name)
	}
	if !reflect.DeepEqual(exh.RawTable, smp.RawTable) {
		t.Fatalf("%s: raw tables differ between exhaustive and sampled", p.Name)
	}
	if !reflect.DeepEqual(exh.Clusters, smp.Clusters) {
		t.Fatalf("%s: clusters differ: exhaustive %v, sampled %v", p.Name, exh.Clusters, smp.Clusters)
	}
	if !reflect.DeepEqual(exh.NormTable, smp.NormTable) {
		t.Fatalf("%s: normalized tables differ", p.Name)
	}
	eb := encodeTopo(t, exh.Topology)
	sb := encodeTopo(t, smp.Topology)
	if !bytes.Equal(eb, sb) {
		t.Fatalf("%s: serialized topologies differ (exhaustive %d bytes, sampled %d bytes)",
			p.Name, len(eb), len(sb))
	}
}

// TestSampledEqualsExhaustiveGolden runs the guarantee on all five golden
// platforms. Their deterministic in-level latency spreads trip the noise
// gate, so the sampled mode must detect that fills would be inexact and
// measure every pair — ending up byte-identical the hard way.
func TestSampledEqualsExhaustiveGolden(t *testing.T) {
	for _, p := range sim.Platforms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			const seed = 42
			exh := inferWith(t, p, seed, testOptions())
			smp := inferWith(t, p, seed, sampledOptions())
			requireSampledEqual(t, p, seed, exh, smp)
			if smp.Pairs != exh.Pairs {
				t.Fatalf("%s: golden platforms must fall back to full measurement: sampled %d pairs, exhaustive %d",
					p.Name, smp.Pairs, exh.Pairs)
			}
			if smp.Retries != exh.Retries || smp.Cycles != exh.Cycles {
				t.Fatalf("%s: retry/cycle totals differ on a full-fallback run: retries %d/%d, cycles %d/%d",
					p.Name, smp.Retries, exh.Retries, smp.Cycles, exh.Cycles)
			}
		})
	}
}

// TestSampledEqualsExhaustiveGenerated runs the guarantee on generated
// mesh, ring and circulant platforms up to 256 contexts, with fixed seeds.
// These are noise-free, so the sampled mode must engage its fast path —
// the larger cases assert it actually measured fewer pairs and filled the
// rest by class.
func TestSampledEqualsExhaustiveGenerated(t *testing.T) {
	cases := []struct {
		name     string
		wantFill bool // large enough that fills must happen
	}{
		{"gen:mesh:s9:c4:t1", false},
		{"gen:mesh:s12:c2:t2", false},
		{"gen:mesh:s25:c2:t2:v7", true},
		{"gen:ring:s8:c4:t2", false},
		{"gen:ring:s16:c8:t2:v3", true},
		{"gen:circulant:s16:c4:t2:v11", true},
		{"gen:circulant:s32:c4:t2", true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p, err := sim.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 7
			exh := inferWith(t, p, seed, testOptions())
			smp := inferWith(t, p, seed, sampledOptions())
			requireSampledEqual(t, p, seed, exh, smp)
			if tc.wantFill {
				if smp.FilledPairs == 0 {
					t.Fatalf("%s: expected the fast path to fill pairs, measured all %d", tc.name, smp.Pairs)
				}
				if smp.Pairs >= exh.Pairs {
					t.Fatalf("%s: sampled measured %d pairs, exhaustive %d — no savings", tc.name, smp.Pairs, exh.Pairs)
				}
			}
			if got, want := smp.Pairs+smp.FilledPairs, exh.Pairs; got != want {
				t.Fatalf("%s: measured+filled = %d, want %d", tc.name, got, want)
			}
		})
	}
}

// TestSampledParallelismInvariance checks that the sampled mode, like the
// exhaustive mode, produces byte-identical results regardless of worker
// count: probe selection and class formation must not depend on
// measurement completion order.
func TestSampledParallelismInvariance(t *testing.T) {
	p, err := sim.ByName("gen:circulant:s16:c4:t2:v11")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	var base *Result
	for _, par := range []int{1, 4, 16} {
		opt := sampledOptions()
		opt.Parallelism = par
		res := inferWith(t, p, seed, opt)
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base.RawTable, res.RawTable) {
			t.Fatalf("parallelism %d: raw table differs from parallelism 1", par)
		}
		if base.Pairs != res.Pairs || base.FilledPairs != res.FilledPairs ||
			base.FallbackBlocks != res.FallbackBlocks ||
			base.Retries != res.Retries || base.Cycles != res.Cycles {
			t.Fatalf("parallelism %d: counters differ: %+v vs %+v", par,
				[5]int64{int64(base.Pairs), int64(base.FilledPairs), int64(base.FallbackBlocks), int64(base.Retries), base.Cycles},
				[5]int64{int64(res.Pairs), int64(res.FilledPairs), int64(res.FallbackBlocks), int64(res.Retries), res.Cycles})
		}
		if !bytes.Equal(encodeTopo(t, base.Topology), encodeTopo(t, res.Topology)) {
			t.Fatalf("parallelism %d: serialized topology differs from parallelism 1", par)
		}
	}
}

// TestSampledBelowFloorStaysExhaustive checks the 64-context floor: small
// machines ignore the sampling option entirely.
func TestSampledBelowFloorStaysExhaustive(t *testing.T) {
	p, err := sim.ByName("gen:ring:s4:c2:t2") // 16 contexts
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Sampling = true // the floor is 64 > 16
	res := inferWith(t, p, 1, opt)
	if res.Sampled {
		t.Fatalf("machine with %d contexts took the sampled path below the %d-context floor",
			p.NumContexts(), samplingFloor)
	}
}

// TestSampledGroundTruthGenerated cross-checks the sampled inference result
// against the generator's ground truth on a platform large enough that the
// fast path engages.
func TestSampledGroundTruthGenerated(t *testing.T) {
	p, err := sim.ByName("gen:mesh:s25:c2:t2:v7") // 100 contexts
	if err != nil {
		t.Fatal(err)
	}
	res := inferWith(t, p, 5, sampledOptions())
	if res.FilledPairs == 0 {
		t.Fatal("fast path did not engage")
	}
	checkAgainstGroundTruth(t, p, res.Topology)
}

// TestSampledSpeedupBar pins the headline claim at the 1024-context scale:
// the sampled mode must measure at most a tenth of the N(N-1)/2 pairs the
// exhaustive mode would. (The wall-clock counterpart is
// BenchmarkInferSampled1024, and bench/'s cold_sampled_ms.)
func TestSampledSpeedupBar(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-context inference in -short mode")
	}
	p, err := sim.ByName("gen:circulant:s64:c8:t2") // 1024 contexts
	if err != nil {
		t.Fatal(err)
	}
	opt := sampledOptions()
	opt.Reps = 15
	res := inferWith(t, p, 3, opt)
	n := p.NumContexts()
	total := n * (n - 1) / 2
	if res.Pairs*10 > total {
		t.Fatalf("sampled mode measured %d of %d pairs — less than the required 10x reduction", res.Pairs, total)
	}
	t.Logf("measured %d of %d pairs (%.1fx reduction), filled %d, fallback blocks %d",
		res.Pairs, total, float64(total)/float64(res.Pairs), res.FilledPairs, res.FallbackBlocks)
}

// TestSampledLargeSmoke is the large-platform smoke: full sampled vs
// exhaustive equality at 1024 contexts, where the exhaustive side measures
// half a million pairs (a couple of seconds; under -race, some tens).
func TestSampledLargeSmoke(t *testing.T) {
	p, err := sim.ByName("gen:circulant:s64:c8:t2")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	exh := testOptions()
	exh.Reps = 15
	smp := sampledOptions()
	smp.Reps = 15
	exhRes := inferWith(t, p, seed, exh)
	smpRes := inferWith(t, p, seed, smp)
	requireSampledEqual(t, p, seed, exhRes, smpRes)
	t.Logf("equality held: exhaustive %d pairs, sampled %d measured + %d filled",
		exhRes.Pairs, smpRes.Pairs, smpRes.FilledPairs)
}

func benchmarkInfer(b *testing.B, name string, sampled bool) {
	p, err := sim.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Reps: 15, Sampling: sampled}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.NewSim(p, 3)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Infer(m, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Sampled != sampled && p.NumContexts() >= 64 {
			b.Fatalf("Sampled = %v, want %v", res.Sampled, sampled)
		}
	}
}

// The size sweep behind the >=10x cold-inference speedup claim. The 256-
// context pair shows the crossover region; at 1024 contexts sampled must
// win by an order of magnitude (compare the two 1024 results).
func BenchmarkInferExhaustive256(b *testing.B)  { benchmarkInfer(b, "gen:circulant:s16:c8:t1", false) }
func BenchmarkInferSampled256(b *testing.B)     { benchmarkInfer(b, "gen:circulant:s16:c8:t1", true) }
func BenchmarkInferExhaustive1024(b *testing.B) { benchmarkInfer(b, "gen:circulant:s64:c8:t2", false) }
func BenchmarkInferSampled1024(b *testing.B)    { benchmarkInfer(b, "gen:circulant:s64:c8:t2", true) }

// BenchmarkGenerate tracks the generator itself: building a ~2.5k-context
// circulant platform, matrices included.
func BenchmarkGenerate(b *testing.B) {
	spec, err := sim.ParseGenName("gen:circulant:s160:c8:t2:v5")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
