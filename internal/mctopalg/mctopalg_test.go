package mctopalg

import (
	"context"
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// testOptions returns inference options with fewer repetitions than the
// paper's n=2000 so the whole platform matrix stays fast; the medians are
// equally stable because the simulator's jitter is small and symmetric.
func testOptions() Options {
	return Options{Reps: 51}
}

// checkAgainstGroundTruth verifies an inferred topology against the
// simulator's ground-truth platform: dimensions, SMT, the same-core and
// same-socket relations of every context pair, socket latencies, and the
// socket-to-node mapping.
func checkAgainstGroundTruth(t *testing.T, p *sim.Platform, top *topo.Topology) {
	t.Helper()
	if top.NumHWContexts() != p.NumContexts() {
		t.Fatalf("%s: contexts = %d, want %d", p.Name, top.NumHWContexts(), p.NumContexts())
	}
	if top.NumSockets() != p.Sockets {
		t.Fatalf("%s: sockets = %d, want %d", p.Name, top.NumSockets(), p.Sockets)
	}
	if top.NumCores() != p.NumCores() {
		t.Errorf("%s: cores = %d, want %d", p.Name, top.NumCores(), p.NumCores())
	}
	if top.SMTWays() != p.SMT {
		t.Errorf("%s: SMT ways = %d, want %d", p.Name, top.SMTWays(), p.SMT)
	}
	n := p.NumContexts()
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			wantCore := p.CoreOf(x) == p.CoreOf(y)
			gotCore := top.Context(x).Core == top.Context(y).Core
			if wantCore != gotCore {
				t.Fatalf("%s: core relation of (%d,%d): got %v, want %v", p.Name, x, y, gotCore, wantCore)
			}
			wantSock := p.SocketOf(x) == p.SocketOf(y)
			gotSock := top.Context(x).Socket == top.Context(y).Socket
			if wantSock != gotSock {
				t.Fatalf("%s: socket relation of (%d,%d): got %v, want %v", p.Name, x, y, gotSock, wantSock)
			}
		}
	}
	// Socket latencies: compare through representative contexts, allowing
	// the clustering's small normalization shift.
	for s1 := 0; s1 < p.Sockets; s1++ {
		for s2 := s1 + 1; s2 < p.Sockets; s2++ {
			x := p.ContextOf(s1*p.Cores, 0)
			y := p.ContextOf(s2*p.Cores, 0)
			want := p.SocketLatency(s1, s2)
			got := top.GetLatency(x, y)
			if d := got - want; d < -12 || d > 12 {
				t.Errorf("%s: socket latency (%d,%d) = %d, want ~%d", p.Name, s1, s2, got, want)
			}
		}
	}
	// Node mapping: MCTOP must infer the hardware truth (not the OS view).
	for s := 0; s < p.Sockets; s++ {
		x := p.ContextOf(s*p.Cores, 0)
		want := p.LocalNode(s)
		if got := top.GetLocalNode(x); got == nil || got.ID != want {
			t.Errorf("%s: local node of socket %d inferred as %v, want %d", p.Name, s, got, want)
		}
	}
}

func TestInferAllPlatforms(t *testing.T) {
	for _, p := range sim.Platforms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m, err := machine.NewSim(p, 42)
			if err != nil {
				t.Fatal(err)
			}
			res, err := InferContext(context.Background(), m, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstGroundTruth(t, p, res.Topology)
		})
	}
}

// TestIvyPipelineStages walks the four steps of Figure 6 on Ivy: a 40x40
// table, exactly 3 latency clusters (~28 / ~112 / ~308) that partition its
// off-diagonal values, and SMT detection.
func TestIvyPipelineStages(t *testing.T) {
	m, _ := machine.NewSim(sim.Ivy(), 7)
	res, err := InferContext(context.Background(), m, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.RawTable.N() != 40 {
		t.Fatalf("raw table is %dx?", res.RawTable.N())
	}
	if res.Pairs != 40*39/2 {
		t.Errorf("measured %d pairs, want %d", res.Pairs, 40*39/2)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters = %v, want 3 levels", res.Clusters)
	}
	if c := res.Clusters[0].Median; c < 26 || c > 30 {
		t.Errorf("SMT cluster median = %d, want ~28", c)
	}
	if c := res.Clusters[1].Median; c < 104 || c > 120 {
		t.Errorf("intra cluster median = %d, want ~112", c)
	}
	if c := res.Clusters[2].Median; c < 300 || c > 316 {
		t.Errorf("cross cluster median = %d, want ~308", c)
	}
	if !res.SMT || res.SMTWays != 2 {
		t.Errorf("SMT = %v/%d, want true/2", res.SMT, res.SMTWays)
	}
	// The raw table must show the heat-map structure: ctx 0 vs 20 in the
	// SMT cluster, 0 vs 1 intra, 0 vs 10 cross.
	if v := res.RawTable.At(0, 20); !res.Clusters[0].Contains(v) {
		t.Errorf("raw[0][20] = %d not in SMT cluster", v)
	}
	if v := res.RawTable.At(0, 1); !res.Clusters[1].Contains(v) {
		t.Errorf("raw[0][1] = %d not in intra cluster", v)
	}
	if v := res.RawTable.At(0, 10); !res.Clusters[2].Contains(v) {
		t.Errorf("raw[0][10] = %d not in cross cluster", v)
	}
	// The clusters partition the symmetric raw table's off-diagonal values,
	// so steps 3 and 4 can read each value as its cluster's median.
	for i := 0; i < res.RawTable.N(); i++ {
		for j := 0; j < res.RawTable.N(); j++ {
			v := res.RawTable.At(i, j)
			if v != res.RawTable.At(j, i) {
				t.Fatalf("raw table asymmetric at (%d,%d)", i, j)
			}
			in := 0
			for _, c := range res.Clusters {
				if c.Contains(v) {
					in++
				}
			}
			if i != j && in != 1 {
				t.Fatalf("raw[%d][%d] = %d lies in %d clusters, want 1", i, j, v, in)
			}
		}
	}
	// Two grouping levels: cores then sockets.
	if len(res.LevelGroups) != 2 {
		t.Fatalf("grouping levels = %d, want 2", len(res.LevelGroups))
	}
	if len(res.LevelGroups[0]) != 20 || len(res.LevelGroups[0][0]) != 2 {
		t.Errorf("core level: %d groups of %d", len(res.LevelGroups[0]), len(res.LevelGroups[0][0]))
	}
	if len(res.LevelGroups[1]) != 2 || len(res.LevelGroups[1][0]) != 20 {
		t.Errorf("socket level: %d groups of %d", len(res.LevelGroups[1]), len(res.LevelGroups[1][0]))
	}
	if res.RdtscOverhead < 20 || res.RdtscOverhead > 30 {
		t.Errorf("rdtsc overhead estimate = %d, want ~24", res.RdtscOverhead)
	}
	if res.Cycles <= 0 {
		t.Error("no cycle accounting")
	}
}

// TestOpteronLevels: the Opteron must expose three cross-socket levels
// (197 / 217 / 300 cycles — Figure 1b) and no SMT.
func TestOpteronLevels(t *testing.T) {
	m, _ := machine.NewSim(sim.Opteron(), 11)
	res, err := InferContext(context.Background(), m, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.SMT {
		t.Error("Opteron must not report SMT")
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("clusters = %v, want 4 (117/197/217/300)", res.Clusters)
	}
	wantMedians := []int64{117, 197, 217, 300}
	for i, w := range wantMedians {
		if d := res.Clusters[i].Median - w; d < -4 || d > 4 {
			t.Errorf("cluster %d median = %d, want ~%d", i, res.Clusters[i].Median, w)
		}
	}
	levels := res.Topology.Levels()
	if len(levels) != 4 {
		t.Fatalf("topology levels = %d", len(levels))
	}
	if levels[0].Kind != topo.LevelSocket {
		t.Errorf("first level kind = %v, want socket", levels[0].Kind)
	}
	for _, l := range levels[1:] {
		if l.Kind != topo.LevelCross {
			t.Errorf("level %q kind = %v, want cross", l.Name, l.Kind)
		}
	}
}

// TestOpteronNodeMappingBeatsOS reproduces footnote 1: the OS's node
// mapping is wrong, MCTOP-ALG infers the truth, and the OS comparison
// check reports the divergence.
func TestOpteronNodeMappingBeatsOS(t *testing.T) {
	p := sim.Opteron()
	m, _ := machine.NewSim(p, 13)
	res, err := InferContext(context.Background(), m, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p.Sockets; s++ {
		ctx := p.ContextOf(s*p.Cores, 0)
		inferred := res.Topology.GetLocalNode(ctx).ID
		if inferred != p.LocalNode(s) {
			t.Errorf("socket %d: inferred node %d, truth %d", s, inferred, p.LocalNode(s))
		}
		if inferred == p.OSLocalNode(s) {
			t.Errorf("socket %d: inference matches the (wrong) OS view", s)
		}
	}
	v := m.OSView()
	diffs := res.Topology.CompareOS(v.CoreOfCtx, v.SocketOfCtx, v.NodeOfSocket)
	if len(diffs) == 0 {
		t.Fatal("OS comparison should flag the node mapping")
	}
	// On Ivy the OS agrees completely.
	mi, _ := machine.NewSim(sim.Ivy(), 13)
	ri, err := InferContext(context.Background(), mi, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	vi := mi.OSView()
	if diffs := ri.Topology.CompareOS(vi.CoreOfCtx, vi.SocketOfCtx, vi.NodeOfSocket); len(diffs) != 0 {
		t.Errorf("Ivy OS comparison should agree, got %v", diffs)
	}
}

// TestWestmereLevel4: 8 sockets, direct links at ~341 and a two-hop "lvl 4"
// at ~458 (Figure 2b); local node of socket 0 is node 4 (Figure 2a).
func TestWestmereLevel4(t *testing.T) {
	p := sim.Westmere()
	m, _ := machine.NewSim(p, 17)
	res, err := InferContext(context.Background(), m, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("clusters = %v, want 4 (28/116/341/458)", res.Clusters)
	}
	if d := res.Clusters[2].Median - 341; d < -4 || d > 4 {
		t.Errorf("direct cross median = %d", res.Clusters[2].Median)
	}
	if d := res.Clusters[3].Median - 458; d < -4 || d > 4 {
		t.Errorf("two-hop median = %d", res.Clusters[3].Median)
	}
	// Socket containing context 0 must be local to node 4.
	if n := res.Topology.GetLocalNode(0); n.ID != 4 {
		t.Errorf("local node of ctx 0 = %d, want 4", n.ID)
	}
}

// TestInferDeterminism: same machine seed, same inferred spec.
func TestInferDeterminism(t *testing.T) {
	run := func() *topo.Topology {
		m, _ := machine.NewSim(sim.Ivy(), 23)
		res, err := InferContext(context.Background(), m, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.Topology
	}
	a, b := run(), run()
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			if a.GetLatency(x, y) != b.GetLatency(x, y) {
				t.Fatalf("non-deterministic latency at (%d,%d)", x, y)
			}
		}
	}
}

// TestInferCustomShapes: property-style sweep over synthetic machines with
// random socket/core/SMT shapes and latency scales — the inferred topology
// must always match the ground truth.
func TestInferCustomShapes(t *testing.T) {
	shapes := []struct {
		sockets, cores, smt int
		scale               int64
		numbering           sim.Numbering
	}{
		{1, 4, 2, 1, sim.NumberingIntelHalves},
		{1, 8, 1, 2, sim.NumberingConsecutive},
		{2, 2, 2, 1, sim.NumberingConsecutive},
		{2, 6, 1, 3, sim.NumberingConsecutive},
		{3, 4, 4, 1, sim.NumberingConsecutive},
		{4, 2, 2, 2, sim.NumberingIntelHalves},
		{4, 6, 1, 1, sim.NumberingConsecutive},
		{2, 10, 2, 1, sim.NumberingIntelHalves},
	}
	for i, sh := range shapes {
		p := sim.Custom("custom", sh.sockets, sh.cores, sh.smt, sh.scale, sh.numbering)
		m, err := machine.NewSim(p, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := InferContext(context.Background(), m, testOptions())
		if err != nil {
			t.Fatalf("shape %+v: %v", sh, err)
		}
		checkAgainstGroundTruth(t, p, res.Topology)
	}
}

// TestInferRejectsHeavyNoise: with absurd noise the symmetry validation
// must fail with ErrClustering instead of returning a wrong topology
// (Section 3.6, "unsuccessful clustering of latency values").
func TestInferRejectsHeavyNoise(t *testing.T) {
	p := sim.Ivy()
	p.DVFS = false
	p.NoiseAmp = 120 // jitter comparable to the level separations
	p.SpuriousRate = 0.30
	p.SpuriousAmp = 400
	m, _ := machine.NewSim(p, 3)
	o := testOptions()
	o.Reps = 7
	_, err := InferContext(context.Background(), m, o)
	if err == nil {
		t.Fatal("expected inference to fail under heavy noise")
	}
	if !errors.Is(err, ErrClustering) {
		t.Errorf("error should wrap ErrClustering, got %v", err)
	}
}

// TestRetryOnUnstableMeasurements: moderate spurious noise triggers the
// stdev-based retry logic but still converges to the right topology.
func TestRetryOnUnstableMeasurements(t *testing.T) {
	p := sim.Ivy()
	p.DVFS = false
	p.SpuriousRate = 0.08
	p.SpuriousAmp = 2500
	m, _ := machine.NewSim(p, 31)
	o := testOptions()
	o.Reps = 41
	res, err := InferContext(context.Background(), m, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Error("expected at least one stdev-triggered retry")
	}
	checkAgainstGroundTruth(t, p, res.Topology)
}

func TestInferTooFewContexts(t *testing.T) {
	p := sim.Custom("tiny", 1, 1, 1, 1, sim.NumberingConsecutive)
	m, err := machine.NewSim(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferContext(context.Background(), m, testOptions()); err == nil {
		t.Error("expected error for a single-context machine")
	}
}

// TestSpecRoundTripAfterInference: an inferred topology survives the
// description-file round trip.
func TestSpecRoundTripAfterInference(t *testing.T) {
	m, _ := machine.NewSim(sim.Haswell(), 5)
	res, err := InferContext(context.Background(), m, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := res.Topology.Spec()
	rebuilt, err := topo.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumSockets() != 4 || rebuilt.NumCores() != 48 {
		t.Error("rebuilt topology differs")
	}
}

// TestInferenceCostOrdering: simulated inference cycles must grow with
// machine size and DVFS (Section 3.5: Ivy ~3 s, Westmere 96 s).
func TestInferenceCostOrdering(t *testing.T) {
	cost := func(p *sim.Platform) float64 {
		m, _ := machine.NewSim(p, 1)
		o := testOptions()
		o.Reps = 9
		res, err := InferContext(context.Background(), m, o)
		if err != nil {
			t.Fatal(err)
		}
		return m.S.SimulatedSeconds(res.Cycles)
	}
	ivy := cost(sim.Ivy())
	wes := cost(sim.Westmere())
	if !(ivy < wes) {
		t.Errorf("inference cost: Ivy %.2f s should be below Westmere %.2f s", ivy, wes)
	}
}
