package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestPlatformsValidate(t *testing.T) {
	for _, p := range Platforms() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPlatformDimensions(t *testing.T) {
	cases := []struct {
		name            string
		contexts, cores int
		sockets, smt    int
	}{
		{"Ivy", 40, 20, 2, 2},
		{"Westmere", 160, 80, 8, 2},
		{"Haswell", 96, 48, 4, 2},
		{"Opteron", 48, 48, 8, 1},
		{"SPARC", 256, 32, 4, 8},
	}
	for _, c := range cases {
		p, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumContexts() != c.contexts || p.NumCores() != c.cores ||
			p.Sockets != c.sockets || p.SMT != c.smt {
			t.Errorf("%s: got %d ctx / %d cores / %d sockets / %d smt",
				c.name, p.NumContexts(), p.NumCores(), p.Sockets, p.SMT)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("PDP-11"); err == nil {
		t.Error("expected error for unknown platform")
	}
}

// TestByNameBuildsOnlyItsPlatform: a golden lookup costs what constructing
// that one platform costs, not all five.
func TestByNameBuildsOnlyItsPlatform(t *testing.T) {
	byName := testing.AllocsPerRun(20, func() {
		if _, err := ByName("SPARC"); err != nil {
			t.Fatal(err)
		}
	})
	direct := testing.AllocsPerRun(20, func() { SPARC() })
	if byName != direct {
		t.Errorf("ByName(\"SPARC\") allocates %.0f objects, SPARC() %.0f", byName, direct)
	}
}

func TestGoldenByNameNames(t *testing.T) {
	if len(goldenByName) != len(Platforms()) {
		t.Errorf("goldenByName has %d entries, Platforms() %d", len(goldenByName), len(Platforms()))
	}
	for name, build := range goldenByName {
		if got := build().Name; got != name {
			t.Errorf("goldenByName[%q] builds platform %q", name, got)
		}
	}
}

// TestIvyNumbering checks the Intel-halves numbering of Figure 6: contexts
// 0 and 20 are SMT siblings on the 40-context Ivy; 0..9 are socket 0.
func TestIvyNumbering(t *testing.T) {
	p := Ivy()
	if p.CoreOf(0) != p.CoreOf(20) {
		t.Error("ctx 0 and 20 should share a core on Ivy")
	}
	if p.CoreOf(0) == p.CoreOf(1) {
		t.Error("ctx 0 and 1 should be different cores")
	}
	if p.SocketOf(9) != 0 || p.SocketOf(10) != 1 {
		t.Error("ctx 9 should be socket 0, ctx 10 socket 1")
	}
	if p.SMTIndexOf(0) != 0 || p.SMTIndexOf(20) != 1 {
		t.Error("SMT indices wrong")
	}
}

// TestSPARCNumbering checks the consecutive numbering of Figure 3:
// contexts 0..7 share core 0; 64 contexts per socket.
func TestSPARCNumbering(t *testing.T) {
	p := SPARC()
	for c := 0; c < 8; c++ {
		if p.CoreOf(c) != 0 {
			t.Fatalf("ctx %d should be core 0 on SPARC", c)
		}
	}
	if p.CoreOf(8) != 1 {
		t.Error("ctx 8 should be core 1")
	}
	if p.SocketOf(63) != 0 || p.SocketOf(64) != 1 {
		t.Error("socket boundary should be at ctx 64")
	}
}

// Property: ContextOf is the inverse of (CoreOf, SMTIndexOf) on every
// platform.
func TestNumberingRoundTrip(t *testing.T) {
	for _, p := range Platforms() {
		for ctx := 0; ctx < p.NumContexts(); ctx++ {
			if got := p.ContextOf(p.CoreOf(ctx), p.SMTIndexOf(ctx)); got != ctx {
				t.Fatalf("%s: ContextOf(CoreOf, SMTIndexOf) of %d = %d", p.Name, ctx, got)
			}
		}
	}
}

// TestOpteronInterconnect checks Figure 1's structure: socket 0 reaches its
// MCM sibling (1) at 197 cycles, the even dies (2, 4, 6) at 217, and the
// remaining odd dies (3, 5, 7) over two hops at 300.
func TestOpteronInterconnect(t *testing.T) {
	p := Opteron()
	if l := p.SocketLatency(0, 1); l != 197 {
		t.Errorf("0-1 latency = %d, want 197", l)
	}
	for _, s := range []int{2, 4, 6} {
		if l := p.SocketLatency(0, s); l != 217 {
			t.Errorf("0-%d latency = %d, want 217", s, l)
		}
	}
	for _, s := range []int{3, 5, 7} {
		if l := p.SocketLatency(0, s); l != 300 {
			t.Errorf("0-%d latency = %d, want 300 (2 hops)", s, l)
		}
		if d := p.SocketDistance(0, s); d != 2 {
			t.Errorf("0-%d distance = %d, want 2", s, d)
		}
	}
}

// TestOpteronMemoryShape checks Figure 1a: local node 143 cy / 10.9 GB/s,
// MCM sibling 247 cy / 5.3 GB/s, one-hop ~262, two-hop ~343.
func TestOpteronMemoryShape(t *testing.T) {
	p := Opteron()
	if p.MemLat[0][0] != 143 || p.MemBW[0][0] != 10.9 {
		t.Errorf("local memory = %d cy / %g GB/s", p.MemLat[0][0], p.MemBW[0][0])
	}
	if p.MemLat[0][1] != 247 || p.MemBW[0][1] != 5.3 {
		t.Errorf("sibling memory = %d cy / %g GB/s", p.MemLat[0][1], p.MemBW[0][1])
	}
	for _, n := range []int{2, 4, 6} {
		if p.MemLat[0][n] < 255 || p.MemLat[0][n] > 270 {
			t.Errorf("one-hop node %d latency = %d", n, p.MemLat[0][n])
		}
	}
	for _, n := range []int{3, 5, 7} {
		if p.MemLat[0][n] < 335 || p.MemLat[0][n] > 350 {
			t.Errorf("two-hop node %d latency = %d", n, p.MemLat[0][n])
		}
	}
}

// TestOpteronOSMappingWrong reproduces footnote 1: the OS's node mapping
// disagrees with the hardware truth.
func TestOpteronOSMappingWrong(t *testing.T) {
	p := Opteron()
	diff := 0
	for s := 0; s < p.Sockets; s++ {
		if p.OSLocalNode(s) != p.LocalNode(s) {
			diff++
		}
	}
	if diff != p.Sockets {
		t.Errorf("OS mapping differs for %d sockets, want all %d", diff, p.Sockets)
	}
}

// TestWestmereTwoHop checks Figure 2b: direct pairs at 341, the rest at 458
// ("lvl 4"), and socket 0's local node is node 4 (Figure 2a).
func TestWestmereTwoHop(t *testing.T) {
	p := Westmere()
	if l := p.SocketLatency(0, 1); l != 341 {
		t.Errorf("0-1 = %d, want 341", l)
	}
	if l := p.SocketLatency(0, 4); l != 341 {
		t.Errorf("0-4 = %d, want 341", l)
	}
	if l := p.SocketLatency(0, 2); l != 458 {
		t.Errorf("0-2 = %d, want 458 (2 hops)", l)
	}
	if p.LocalNode(0) != 4 {
		t.Errorf("local node of socket 0 = %d, want 4", p.LocalNode(0))
	}
	if p.MemLat[0][4] != 369 {
		t.Errorf("socket 0 local latency = %d, want 369", p.MemLat[0][4])
	}
}

func TestPairLatencyLevels(t *testing.T) {
	p := Ivy()
	if l := p.PairLatency(0, 20); l != 28 {
		t.Errorf("SMT pair = %d, want 28", l)
	}
	if l := p.PairLatency(0, 0); l != 0 {
		t.Errorf("self = %d, want 0", l)
	}
	if l := p.PairLatency(0, 1); l < 96 || l > 128 {
		t.Errorf("intra pair = %d, want in [96,128]", l)
	}
	if l := p.PairLatency(0, 10); l < 300 || l > 316 {
		t.Errorf("cross pair = %d, want ~308", l)
	}
	// Symmetry.
	for _, pair := range [][2]int{{0, 1}, {3, 17}, {0, 39}, {5, 25}} {
		if p.PairLatency(pair[0], pair[1]) != p.PairLatency(pair[1], pair[0]) {
			t.Errorf("PairLatency not symmetric for %v", pair)
		}
	}
}

// TestPairLatencySeparation: on every platform the latency levels must be
// separable by clustering — the property MCTOP-ALG depends on.
func TestPairLatencySeparation(t *testing.T) {
	for _, p := range Platforms() {
		var all []int64
		n := p.NumContexts()
		for x := 0; x < n; x++ {
			for y := x + 1; y < n; y++ {
				all = append(all, p.PairLatency(x, y))
			}
		}
		cl := stats.Cluster(all, stats.ClusterOptions{RelGap: 0.04, AbsGap: 10})
		// Count the distinct ground-truth levels.
		levels := map[int64]bool{}
		if p.SMT > 1 {
			levels[p.SameCoreLat] = true
		}
		levels[p.IntraSocketLat] = true
		for a, row := range p.SocketLatMatrix {
			for b, l := range row {
				if a != b {
					levels[l] = true
				}
			}
		}
		if len(cl) != len(levels) {
			t.Errorf("%s: clustering found %d levels (%v), ground truth has %d (%v)",
				p.Name, len(cl), cl, len(levels), levels)
		}
	}
}

// TestLockStepMeasurement runs the Figure 5 protocol on the simulator and
// checks that the median of repeated measurements recovers the ground-truth
// pair latency.
func TestLockStepMeasurement(t *testing.T) {
	p := Ivy()
	p.DVFS = false // isolate the protocol from the ramp in this test
	s, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(xCtx, yCtx int) int64 {
		x, _ := s.NewThread(xCtx)
		y, _ := s.NewThread(yCtx)
		const line = 12345
		const reps = 200
		vals := make([]int64, 0, reps)
		for i := 0; i < reps; i++ {
			s.Barrier(x, y)
			y.CAS(line)
			s.Barrier(x, y)
			start := x.Rdtsc()
			x.CAS(line)
			end := x.Rdtsc()
			vals = append(vals, end-start-p.RdtscOverhead)
		}
		return stats.Median(vals)
	}
	cases := []struct {
		x, y int
	}{{0, 20}, {0, 1}, {0, 10}, {5, 37}}
	for _, c := range cases {
		got := measure(c.x, c.y)
		want := p.PairLatency(c.x, c.y)
		if d := got - want; d < -4 || d > 4 {
			t.Errorf("measured (%d,%d) = %d, ground truth %d", c.x, c.y, got, want)
		}
	}
}

// TestCASCosts pins what one CAS costs on a noise-free, DVFS-off machine,
// whose clock therefore advances by exactly the charged cost: a cold line
// comes from its home node (line % nodes), the holder re-CASing hits, and
// any other context pays the pair's transfer latency to the holder. Each
// line keeps its own holder.
func TestCASCosts(t *testing.T) {
	p, err := ByName("gen:ring:s4:c2:t2:v7") // 1-hop and 2-hop sockets differ
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	thread := func(core, smt int) *Thread {
		th, err := s.NewThread(p.ContextOf(core, smt))
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	a, sib := thread(0, 0), thread(0, 1)          // SMT siblings on socket 0
	near := thread(1, 0)                          // socket 0, another core
	oneHop, twoHops := thread(2, 0), thread(4, 0) // sockets 1 and 2
	if p.PairLatency(twoHops.ctx, near.ctx) == p.PairLatency(oneHop.ctx, twoHops.ctx) {
		t.Fatal("the test platform's one- and two-hop latencies coincide")
	}
	steps := []struct {
		what string
		th   *Thread
		line uint64
		want int64
	}{
		{"cold CAS homed on node 1", a, 1, p.MemLat[0][1]},
		{"cold CAS homed on node 2", a, 2, p.MemLat[0][2]},
		{"re-CAS by the holder", a, 1, p.HitCASLat},
		{"SMT sibling takes the line", sib, 1, p.SameCoreLat},
		{"and hands it back", a, 1, p.SameCoreLat},
		{"same-socket transfer", near, 1, p.PairLatency(near.ctx, a.ctx)},
		{"two-hop transfer", twoHops, 1, p.PairLatency(twoHops.ctx, near.ctx)},
		{"one-hop transfer", oneHop, 1, p.PairLatency(oneHop.ctx, twoHops.ctx)},
		{"line 2 is still held where it was", a, 2, p.HitCASLat},
	}
	for _, st := range steps {
		before := st.th.Now()
		st.th.CAS(st.line)
		if got := st.th.Now() - before; got != st.want {
			t.Errorf("%s: CAS cost %d cycles, want %d", st.what, got, st.want)
		}
	}
}

// TestDVFSRamp: spin durations shrink as a cold core ramps to max
// frequency, then stabilize — the signal libmctop's DVFS wait looks for.
func TestDVFSRamp(t *testing.T) {
	p := Ivy()
	s, err := New(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := s.NewThread(0)
	const unit = 10_000_000
	first := s.SpinSolo(th, unit)
	var last int64
	for i := 0; i < 30; i++ {
		last = s.SpinSolo(th, unit)
	}
	if first <= last {
		t.Errorf("cold spin (%d) should be slower than warm spin (%d)", first, last)
	}
	// Warm durations stabilize near the nominal unit.
	again := s.SpinSolo(th, unit)
	if d := again - last; d < -100 || d > 100 {
		t.Errorf("warm spins unstable: %d vs %d", again, last)
	}
	// Re-pinning resets the ramp.
	if err := th.Pin(1); err != nil {
		t.Fatal(err)
	}
	cold := s.SpinSolo(th, unit)
	if cold <= last+100 {
		t.Errorf("after migration spin = %d, expected cold (> %d)", cold, last)
	}
}

// TestSMTDetection: co-running a spin loop on SMT siblings dilates it;
// co-running on separate cores does not.
func TestSMTDetection(t *testing.T) {
	p := Ivy()
	p.DVFS = false
	s, _ := New(p, 3)
	a, _ := s.NewThread(0)
	b, _ := s.NewThread(20) // sibling of 0
	c, _ := s.NewThread(1)  // different core
	const unit = 100_000
	solo := s.SpinSolo(a, unit)
	d1, d2 := s.SpinTogether(a, b, unit)
	if float64(d1) < 1.5*float64(solo) || float64(d2) < 1.5*float64(solo) {
		t.Errorf("SMT siblings: %d/%d vs solo %d — expected ~1.9x dilation", d1, d2, solo)
	}
	d1, d3 := s.SpinTogether(a, c, unit)
	if float64(d1) > 1.2*float64(solo) || float64(d3) > 1.2*float64(solo) {
		t.Errorf("separate cores: %d/%d vs solo %d — expected no dilation", d1, d3, solo)
	}
}

// TestFig7PowerNumbers reproduces the power lines of Figure 7: placing 30
// threads CON_HWC on Ivy uses all 20 contexts of socket 0 and 10 of socket
// 1, for 66.7 + 43.4 = 110.1 W package power and 111.9 + 88.7 = 200.6 W
// with DRAM.
func TestFig7PowerNumbers(t *testing.T) {
	p := Ivy()
	var ctxs []int
	// All 20 contexts of socket 0: cores 0..9, both SMT contexts.
	for core := 0; core < 10; core++ {
		ctxs = append(ctxs, p.ContextOf(core, 0), p.ContextOf(core, 1))
	}
	// 10 contexts of socket 1, compactly: cores 10..14, both contexts.
	for core := 10; core < 15; core++ {
		ctxs = append(ctxs, p.ContextOf(core, 0), p.ContextOf(core, 1))
	}
	per, total := p.PowerEstimate(ctxs, false)
	if math.Abs(per[0]-66.7) > 0.05 || math.Abs(per[1]-43.4) > 0.05 {
		t.Errorf("per-socket power = %.1f/%.1f, want 66.7/43.4", per[0], per[1])
	}
	if math.Abs(total-110.1) > 0.1 {
		t.Errorf("total = %.1f, want 110.1", total)
	}
	perD, totalD := p.PowerEstimate(ctxs, true)
	if math.Abs(perD[0]-111.9) > 0.1 || math.Abs(perD[1]-88.7) > 0.1 {
		t.Errorf("per-socket with DRAM = %.1f/%.1f, want 111.9/88.7", perD[0], perD[1])
	}
	if math.Abs(totalD-200.6) > 0.2 {
		t.Errorf("total with DRAM = %.1f, want 200.6", totalD)
	}
}

// TestFig7Bandwidth reproduces Figure 7's bandwidth lines: socket local
// bandwidths 15.9 + 8.37 = 24.27 GB/s aggregate, proportions 0.655/0.345.
func TestFig7Bandwidth(t *testing.T) {
	p := Ivy()
	bw0 := p.MemBW[0][p.LocalNode(0)]
	bw1 := p.MemBW[1][p.LocalNode(1)]
	sum := bw0 + bw1
	if math.Abs(sum-24.27) > 0.05 {
		t.Errorf("aggregate local bandwidth = %.2f, want ~24.27", sum)
	}
	if math.Abs(bw0/sum-0.655) > 0.005 || math.Abs(bw1/sum-0.345) > 0.005 {
		t.Errorf("proportions = %.3f/%.3f, want 0.655/0.345", bw0/sum, bw1/sum)
	}
}

func TestStreamBandwidthSaturation(t *testing.T) {
	p := Ivy()
	s, _ := New(p, 4)
	// One core streams at CoreStreamBW.
	if bw := s.StreamBandwidth([]int{0}, 0); bw != p.CoreStreamBW {
		t.Errorf("1-core stream = %g, want %g", bw, p.CoreStreamBW)
	}
	// SMT siblings share one core's streaming capacity.
	if bw := s.StreamBandwidth([]int{0, 20}, 0); bw != p.CoreStreamBW {
		t.Errorf("sibling stream = %g, want %g", bw, p.CoreStreamBW)
	}
	// Enough cores saturate the node.
	ctxs := []int{0, 1, 2, 3, 4, 5}
	if bw := s.StreamBandwidth(ctxs, 0); bw != p.MemBW[0][0] {
		t.Errorf("6-core stream = %g, want node cap %g", bw, p.MemBW[0][0])
	}
	// Remote streaming is link-capped and never exceeds the node itself.
	remote := s.StreamBandwidth([]int{10, 11, 12, 13, 14}, 0)
	if remote > p.MemBW[1][0] || remote > p.MemBW[0][0] {
		t.Errorf("remote stream = %g exceeds caps", remote)
	}
}

func TestMemRandomAccessLatency(t *testing.T) {
	p := Opteron() // no DVFS: exact expectations
	s, _ := New(p, 5)
	th, _ := s.NewThread(0)
	n := 1000
	total := th.MemRandomAccess(0, n)
	per := float64(total) / float64(n)
	if per < 140 || per > 147 {
		t.Errorf("local random access = %.1f cy, want ~143", per)
	}
	total = th.MemRandomAccess(3, n)
	per = float64(total) / float64(n)
	if per < 338 || per > 350 {
		t.Errorf("two-hop random access = %.1f cy, want ~343", per)
	}
}

func TestCacheWorkingSetSteps(t *testing.T) {
	p := Opteron()
	s, _ := New(p, 6)
	th, _ := s.NewThread(0)
	n := 500
	l1 := float64(th.CacheWorkingSetLoads(16<<10, n)) / float64(n)
	l2 := float64(th.CacheWorkingSetLoads(256<<10, n)) / float64(n)
	llc := float64(th.CacheWorkingSetLoads(2<<20, n)) / float64(n)
	mem := float64(th.CacheWorkingSetLoads(64<<20, n)) / float64(n)
	if !(l1 < l2 && l2 < llc && llc < mem) {
		t.Errorf("latency steps not increasing: %.1f %.1f %.1f %.1f", l1, l2, llc, mem)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int64 {
		s, _ := New(Ivy(), 99)
		x, _ := s.NewThread(0)
		y, _ := s.NewThread(10)
		var out []int64
		for i := 0; i < 100; i++ {
			s.Barrier(x, y)
			y.CAS(7)
			s.Barrier(x, y)
			a := x.Rdtsc()
			x.CAS(7)
			out = append(out, x.Rdtsc()-a)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestReforkEqualsFork: a fork that roamed — three threads on three cores
// and two lines, so both inline slots spilled — and is then re-forked is
// the simulator a fresh Fork of the new seed is, field for field, and
// measures what the fresh one measures. Its threads are the same pointers
// as before the re-fork, and re-forking allocates nothing.
func TestReforkEqualsFork(t *testing.T) {
	parent, err := New(Westmere(), 5)
	if err != nil {
		t.Fatal(err)
	}
	f := parent.Fork(PairSeed(5, 0, 1))
	a, _ := f.NewThread(0)
	b, _ := f.NewThread(10)
	c, _ := f.NewThread(20)
	a.CAS(3)
	b.CAS(3)
	c.CAS(9)
	f.Barrier(a, c)
	if f.spill == nil || f.spill.busy == nil || len(f.spill.holders) == 0 {
		t.Fatal("the roaming fork did not spill; the test no longer covers the spill")
	}

	seed := PairSeed(5, 2, 77)
	f.Refork(seed)
	fresh := parent.Fork(seed)
	if !reflect.DeepEqual(f, fresh) {
		t.Fatalf("re-forked simulator %+v, fresh fork %+v", f, fresh)
	}
	measure := func(s *Sim) ([]int64, *Thread) {
		x, _ := s.NewThread(2)
		y, _ := s.NewThread(77)
		return s.Rounds(x, y, 51, 20, nil), x
	}
	got, x := measure(&f)
	want, _ := measure(&fresh)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-forked rounds %v, fresh %v", got, want)
	}
	if x != a {
		t.Fatal("a re-forked simulator's first thread is a new value")
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Refork(seed) }); allocs != 0 {
		t.Fatalf("Refork allocates %.1f objects, want 0", allocs)
	}
}

func TestNewThreadValidation(t *testing.T) {
	s, _ := New(Ivy(), 0)
	if _, err := s.NewThread(40); err == nil {
		t.Error("expected error pinning beyond last context")
	}
	if _, err := s.NewThread(-1); err == nil {
		t.Error("expected error pinning to negative context")
	}
}

func TestCustomPlatformValid(t *testing.T) {
	f := func(sockets, cores, smt uint8, scale int64) bool {
		s := int(sockets%4) + 1
		c := int(cores%8) + 1
		m := int(smt%4) + 1
		sc := scale % 4
		if sc <= 0 {
			sc = 1
		}
		p := Custom("t", s, c, m, sc, NumberingConsecutive)
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadPlatforms(t *testing.T) {
	p := Ivy()
	p.SocketLatMatrix, p.SocketHopMatrix = nil, nil
	if err := p.Validate(); err == nil {
		t.Error("multi-socket platform without socket matrices should fail validation")
	}

	p = Ivy()
	p.MemLat[0][0] = 0
	if err := p.Validate(); err == nil {
		t.Error("zero memory latency should fail validation")
	}

	p = Westmere()
	p.SocketLatMatrix[0][2], p.SocketLatMatrix[2][0] = 0, 0
	if err := p.Validate(); err == nil {
		t.Error("a two-hop pair without a latency should fail")
	}

	p = Westmere()
	p.SocketHopMatrix[0][2] = 1
	if err := p.Validate(); err == nil {
		t.Error("asymmetric hop matrix should fail")
	}

	p = Ivy()
	p.LocalNodeOf = []int{0, 0}
	if err := p.Validate(); err == nil {
		t.Error("non-permutation LocalNodeOf should fail")
	}
}

func TestSimulatedSeconds(t *testing.T) {
	s, _ := New(Ivy(), 0)
	if sec := s.SimulatedSeconds(2_800_000_000); math.Abs(sec-1.0) > 1e-9 {
		t.Errorf("2.8e9 cycles at 2.8 GHz = %g s, want 1", sec)
	}
}

func TestNodeOwner(t *testing.T) {
	p := Westmere()
	for n := 0; n < p.NumNodes(); n++ {
		owner := p.NodeOwner(n)
		if p.LocalNode(owner) != n {
			t.Errorf("NodeOwner(%d) = %d but LocalNode(%d) = %d", n, owner, owner, p.LocalNode(owner))
		}
	}
}
