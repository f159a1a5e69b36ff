package plugins

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/sim"
	"repro/internal/topo"
)

func inferred(t *testing.T, p *sim.Platform, seed uint64) (*machine.SimMachine, *topo.Topology) {
	t.Helper()
	m, err := machine.NewSim(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	o := mctopalg.Options{Reps: 51}
	res, err := mctopalg.Infer(m, o)
	if err != nil {
		t.Fatal(err)
	}
	return m, res.Topology
}

func TestEnrichIvy(t *testing.T) {
	p := sim.Ivy()
	m, base := inferred(t, p, 3)
	top, err := Enrich(m, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	s0 := top.Socket(0)
	if s0.MemLat == nil || s0.MemBW == nil {
		t.Fatal("memory measurements missing after enrichment")
	}
	// Latencies within a few cycles of ground truth.
	for s := 0; s < 2; s++ {
		for n := 0; n < 2; n++ {
			got := top.Socket(s).MemLat[n]
			want := p.MemLat[s][n]
			if d := got - want; d < -6 || d > 6 {
				t.Errorf("MemLat[%d][%d] = %d, want ~%d", s, n, got, want)
			}
		}
	}
	// Bandwidths saturate at the platform's node bandwidth.
	if got := top.Socket(0).MemBW[0]; math.Abs(got-15.9) > 0.2 {
		t.Errorf("local BW socket 0 = %g, want 15.9", got)
	}
	if got := top.Socket(1).MemBW[1]; math.Abs(got-8.37) > 0.2 {
		t.Errorf("local BW socket 1 = %g, want 8.37", got)
	}
	// Node objects carry their own figures.
	if top.Node(0).BW == 0 || top.Node(0).Lat == 0 {
		t.Error("node 0 has no measurements")
	}
	// Single-core stream bandwidth for RR_SCALE.
	if got := top.Spec().StreamCoreBW; math.Abs(got-p.CoreStreamBW) > 0.01 {
		t.Errorf("StreamCoreBW = %g, want %g", got, p.CoreStreamBW)
	}
	// Cache plugin: OS sizes, measured latencies.
	c := top.Cache()
	if c == nil {
		t.Fatal("cache info missing")
	}
	if c.SizeL1 != 32<<10 || c.SizeL2 != 256<<10 || c.SizeLLC != 25<<20 {
		t.Errorf("cache sizes = %d/%d/%d", c.SizeL1, c.SizeL2, c.SizeLLC)
	}
	if c.LatL1 < 3 || c.LatL1 > 6 {
		t.Errorf("L1 latency = %d, want ~4", c.LatL1)
	}
	if !(c.LatL1 < c.LatL2) {
		t.Errorf("latency steps broken: %d %d %d", c.LatL1, c.LatL2, c.LatLLC)
	}
	// Power plugin reconstructs the model used by Figure 7.
	pw := top.Power()
	if !pw.Available() {
		t.Fatal("power info missing on Ivy")
	}
	if math.Abs(pw.PerSocketBase-20.1) > 0.01 || math.Abs(pw.PerFirstCtx-3.2) > 0.01 ||
		math.Abs(pw.PerExtraCtx-1.46) > 0.01 || math.Abs(pw.DRAM-45.25) > 0.01 {
		t.Errorf("power model = base %.2f first %.2f extra %.2f dram %.2f",
			pw.PerSocketBase, pw.PerFirstCtx, pw.PerExtraCtx, pw.DRAM)
	}
	if pw.Idle != 40 {
		t.Errorf("idle = %g, want 40", pw.Idle)
	}
	// Full power: 2 sockets fully loaded.
	wantFull := 2*20.1 + 20*3.2 + 20*1.46
	if math.Abs(pw.Full-wantFull) > 0.1 {
		t.Errorf("full power = %.1f, want %.1f", pw.Full, wantFull)
	}
	// PowerEstimate through the enriched topology matches the platform.
	ctxs := []int{0, 20, 1, 21}
	perT, totT := top.PowerEstimate(ctxs, false)
	perP, totP := p.PowerEstimate(ctxs, false)
	if math.Abs(totT-totP) > 0.01 || math.Abs(perT[0]-perP[0]) > 0.01 {
		t.Errorf("topology power estimate %.2f vs platform %.2f", totT, totP)
	}
}

// TestEnrichOpteron: no power (non-Intel), but memory matrices must show
// the paper's Figure 1a shape — local 143, sibling 247, one-hop ~262,
// two-hop ~343 — despite the wrong OS node mapping.
func TestEnrichOpteron(t *testing.T) {
	p := sim.Opteron()
	m, base := inferred(t, p, 5)
	top, err := Enrich(m, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if top.Power().Available() {
		t.Error("Opteron must not report power")
	}
	s0 := top.Socket(0)
	local := s0.Local.ID
	if got := s0.MemLat[local]; got < 140 || got > 147 {
		t.Errorf("local latency = %d, want ~143", got)
	}
	// The sibling node is the second closest.
	var lats []int64
	for n := 0; n < 8; n++ {
		if n != local {
			lats = append(lats, s0.MemLat[n])
		}
	}
	second := int64(1 << 62)
	for _, l := range lats {
		if l < second {
			second = l
		}
	}
	if second < 243 || second > 252 {
		t.Errorf("sibling latency = %d, want ~247", second)
	}
	if got := s0.MemBW[local]; math.Abs(got-10.9) > 0.2 {
		t.Errorf("local BW = %g, want 10.9", got)
	}
}

func TestEnrichSelectedPlugins(t *testing.T) {
	p := sim.Ivy()
	m, base := inferred(t, p, 9)
	top, err := Enrich(m, base, []Plugin{MemLatency{Probes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if top.Socket(0).MemLat == nil {
		t.Error("memory latency missing")
	}
	if top.Socket(0).MemBW != nil {
		t.Error("bandwidth should not have been measured")
	}
	if top.Cache() != nil {
		t.Error("cache should not have been measured")
	}
}

// TestEnrichedRoundTrip: the enriched spec survives the description file.
func TestEnrichedRoundTrip(t *testing.T) {
	p := sim.Ivy()
	m, base := inferred(t, p, 11)
	top, err := Enrich(m, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/ivy.mct"
	if err := topo.SaveFile(path, top); err != nil {
		t.Fatal(err)
	}
	loaded, err := topo.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cache() == nil || !loaded.Power().Available() {
		t.Error("enrichment lost in round trip")
	}
	if loaded.Socket(0).MemBW[0] != top.Socket(0).MemBW[0] {
		t.Error("bandwidth lost in round trip")
	}
	if loaded.Spec().StreamCoreBW != top.Spec().StreamCoreBW {
		t.Error("stream bandwidth lost in round trip")
	}
}

// TestPluginsSkipUnsupported: a machine without probers (the host backend)
// skips all plugins without error.
func TestPluginsSkipUnsupported(t *testing.T) {
	// The host machine implements Machine but not MemoryProber/PowerProber.
	host := machine.NewHost()
	spec := topo.Spec{}
	for _, p := range All() {
		err := p.Run(host, nil, &spec)
		if _, ok := err.(ErrUnsupported); !ok {
			t.Errorf("%s: expected ErrUnsupported, got %v", p.Name(), err)
		}
	}
}
