package place

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/topo"
)

var (
	topoCache = map[string]*topo.Topology{}
	topoMu    sync.Mutex
)

// enriched infers and enriches a platform's topology (cached per platform:
// placements never mutate it).
func enriched(t *testing.T, p *sim.Platform) *topo.Topology {
	t.Helper()
	topoMu.Lock()
	defer topoMu.Unlock()
	if tp, ok := topoCache[p.Name]; ok {
		return tp
	}
	m, err := machine.NewSim(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	o := mctopalg.Options{Reps: 51}
	res, err := mctopalg.InferContext(context.Background(), m, o)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := plugins.Enrich(m, res.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	topoCache[p.Name] = tp
	return tp
}

// TestFig7ConHWC reproduces Figure 7: CON_HWC with 30 threads on Ivy.
func TestFig7ConHWC(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, err := NewFrom(tp, ConHWC, Options{NThreads: 30})
	if err != nil {
		t.Fatal(err)
	}
	if pl.NThreads() != 30 {
		t.Fatalf("threads = %d", pl.NThreads())
	}
	if got := pl.NCores(); got != 15 {
		t.Errorf("# Cores = %d, want 15", got)
	}
	// Compact order: core 0's two contexts first (0 then its sibling 20).
	ctxs := pl.Contexts()
	if ctxs[0] != 0 || ctxs[1] != 20 || ctxs[2] != 1 || ctxs[3] != 21 {
		t.Errorf("placement starts %v, want 0 20 1 21", ctxs[:4])
	}
	if got := pl.CtxPerSocket(); got[0] != 20 || got[1] != 10 {
		t.Errorf("HW ctx/socket = %v, want [20 10]", got)
	}
	if got := pl.CoresPerSocket(); got[0] != 10 || got[1] != 5 {
		t.Errorf("cores/socket = %v, want [10 5]", got)
	}
	props := pl.BWProportions()
	if math.Abs(props[0]-0.655) > 0.01 || math.Abs(props[1]-0.345) > 0.01 {
		t.Errorf("BW proportions = %v, want 0.655/0.345", props)
	}
	if got := pl.MaxLatency(); got < 300 || got > 316 {
		t.Errorf("max latency = %d, want ~308", got)
	}
	if got := pl.MinBandwidth(); math.Abs(got-24.27) > 0.3 {
		t.Errorf("min bandwidth = %.2f, want ~24.28", got)
	}
	per, total := pl.MaxPower(false)
	if math.Abs(per[0]-66.7) > 0.1 || math.Abs(per[1]-43.4) > 0.1 || math.Abs(total-110.1) > 0.15 {
		t.Errorf("max power = %v = %.1f, want 66.7/43.4 = 110.1", per, total)
	}
	perD, totalD := pl.MaxPower(true)
	if math.Abs(perD[0]-111.9) > 0.15 || math.Abs(perD[1]-88.7) > 0.15 || math.Abs(totalD-200.6) > 0.25 {
		t.Errorf("max power DRAM = %v = %.1f, want 111.9/88.7 = 200.6", perD, totalD)
	}
	out := pl.String()
	for _, want := range []string{"MCTOP_PLACE_CON_HWC", "# Cores            : 15", "Max latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestConCoreHWC(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, err := NewFrom(tp, ConCoreHWC, Options{NThreads: 12})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := pl.Contexts()
	// Unique cores of socket 0 first (0..9), then SMT siblings (20, 21).
	for i := 0; i < 10; i++ {
		if ctxs[i] != i {
			t.Fatalf("ctxs[%d] = %d, want %d", i, ctxs[i], i)
		}
	}
	if ctxs[10] != 20 || ctxs[11] != 21 {
		t.Errorf("ctxs[10:12] = %v, want [20 21]", ctxs[10:12])
	}
	if len(pl.SocketsUsed()) != 1 {
		t.Error("12 threads should fit one socket under CON_CORE_HWC")
	}
}

func TestConCore(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, err := NewFrom(tp, ConCore, Options{NThreads: 12})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := pl.Contexts()
	// All 10 cores of socket 0, then 2 cores of socket 1 — no SMT siblings.
	if ctxs[10] != 10 || ctxs[11] != 11 {
		t.Errorf("ctxs[10:12] = %v, want [10 11] (unique cores of socket 1)", ctxs[10:12])
	}
	if got := pl.NCores(); got != 12 {
		t.Errorf("cores = %d, want 12 (all unique)", got)
	}
	if len(pl.SocketsUsed()) != 2 {
		t.Error("CON_CORE should have spilled to socket 1")
	}
}

func TestBalanceSpreadsEvenly(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	for _, pol := range []Policy{BalanceHWC, BalanceCoreHWC, BalanceCore} {
		pl, err := NewFrom(tp, pol, Options{NThreads: 10})
		if err != nil {
			t.Fatal(err)
		}
		counts := pl.CtxPerSocket()
		if len(counts) != 2 || counts[0] != 5 || counts[1] != 5 {
			t.Errorf("%v: ctx/socket = %v, want [5 5]", pol, counts)
		}
	}
	// BalanceCore must use unique cores.
	pl, _ := NewFrom(tp, BalanceCore, Options{NThreads: 10})
	if pl.NCores() != 10 {
		t.Errorf("BalanceCore cores = %d, want 10", pl.NCores())
	}
	// BalanceHWC keeps SMT pairs together: 5 threads/socket -> 3 cores.
	pl, _ = NewFrom(tp, BalanceHWC, Options{NThreads: 10})
	cps := pl.CoresPerSocket()
	if cps[0] != 3 || cps[1] != 3 {
		t.Errorf("BalanceHWC cores/socket = %v, want [3 3]", cps)
	}
}

func TestRRAlternatesSockets(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, err := NewFrom(tp, RRCore, Options{NThreads: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := pl.Contexts()
	socketSeq := make([]int, len(ctxs))
	for i, c := range ctxs {
		socketSeq[i] = tp.Context(c).Socket.ID
	}
	for i := 0; i < len(socketSeq)-1; i++ {
		if socketSeq[i] == socketSeq[i+1] {
			t.Fatalf("RRCore does not alternate sockets: %v", socketSeq)
		}
	}
	// Max-BW socket (0) first.
	if socketSeq[0] != 0 {
		t.Errorf("RR starts at socket %d, want 0 (max BW)", socketSeq[0])
	}
	// Unique cores first.
	if pl.NCores() != 6 {
		t.Errorf("RRCore cores = %d, want 6", pl.NCores())
	}
}

func TestRRScaleCapsAtSaturation(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, err := NewFrom(tp, RRScale, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ivy: socket 0 saturates at ceil(15.9/4.0) = 4 streaming cores,
	// socket 1 at ceil(8.37/4.0) = 3.
	counts := pl.CtxPerSocket()
	if len(counts) != 2 || counts[0] != 4 || counts[1] != 3 {
		t.Errorf("RR_SCALE ctx/socket = %v, want [4 3]", counts)
	}
	if pl.NThreads() != 7 {
		t.Errorf("RR_SCALE threads = %d, want 7", pl.NThreads())
	}
}

func TestPowerPolicyCompactsSMT(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, err := NewFrom(tp, PowerPolicy, Options{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := pl.Contexts()
	// Cheapest additions: SMT sibling of an active core before a new core.
	if tp.Context(ctxs[0]).Core != tp.Context(ctxs[1]).Core {
		t.Errorf("POWER should pair SMT siblings first: %v", ctxs)
	}
	if tp.Context(ctxs[2]).Core != tp.Context(ctxs[3]).Core {
		t.Errorf("POWER third/fourth should share a core: %v", ctxs)
	}
	if len(pl.SocketsUsed()) != 1 {
		t.Error("POWER with 4 threads should stay on one socket")
	}
	// POWER uses fewer cores than a core-first policy (Figure 11's trade).
	plCore, _ := NewFrom(tp, ConCoreHWC, Options{NThreads: 4})
	if !(pl.NCores() < plCore.NCores()) {
		t.Errorf("POWER cores = %d, CON_CORE_HWC cores = %d", pl.NCores(), plCore.NCores())
	}
	// Unavailable on non-Intel platforms.
	if _, err := NewFrom(enriched(t, sim.Opteron()), PowerPolicy, Options{}); err == nil {
		t.Error("POWER must fail without power measurements")
	}
}

func TestNoneAndSequential(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, err := NewFrom(tp, None, Options{NThreads: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pl.Contexts() {
		if c != -1 {
			t.Errorf("None placement pins to %d", c)
		}
	}
	if pl.NCores() != 0 || pl.MaxLatency() != 0 {
		t.Error("None placement should have empty stats")
	}
	seq, _ := NewFrom(tp, Sequential, Options{})
	ctxs := seq.Contexts()
	for i, c := range ctxs {
		if c != i {
			t.Fatalf("Sequential ctxs[%d] = %d", i, c)
		}
	}
}

// TestAllPoliciesAllPlatforms: structural invariants of every applicable
// policy on every platform — contexts valid and distinct, thread counts
// respected.
func TestAllPoliciesAllPlatforms(t *testing.T) {
	for _, p := range sim.Platforms() {
		tp := enriched(t, p)
		for _, pol := range Policies() {
			if pol == PowerPolicy && !tp.Power().Available() {
				continue
			}
			for _, n := range []int{1, 3, p.NumContexts() / 2, 0} {
				pl, err := NewFrom(tp, pol, Options{NThreads: n})
				if err != nil {
					t.Fatalf("%s/%v/%d: %v", p.Name, pol, n, err)
				}
				ctxs := pl.Contexts()
				if n > 0 && pol != RRScale && len(ctxs) != n && len(ctxs) != p.NumContexts() {
					if len(ctxs) > n {
						t.Errorf("%s/%v: asked %d got %d", p.Name, pol, n, len(ctxs))
					}
				}
				seen := map[int]bool{}
				for _, c := range ctxs {
					if pol == None {
						continue
					}
					if c < 0 || c >= p.NumContexts() {
						t.Fatalf("%s/%v: context %d out of range", p.Name, pol, c)
					}
					if seen[c] {
						t.Fatalf("%s/%v: context %d assigned twice", p.Name, pol, c)
					}
					seen[c] = true
				}
			}
		}
	}
}

func TestNSocketsOption(t *testing.T) {
	tp := enriched(t, sim.Opteron())
	pl, err := NewFrom(tp, ConCoreHWC, Options{NSockets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.SocketsUsed()); got != 2 {
		t.Errorf("sockets used = %d, want 2", got)
	}
	// The two sockets must be an MCM pair (minimum latency chain).
	ss := pl.SocketsUsed()
	if lat := tp.SocketLatency(ss[0].ID, ss[1].ID); lat > 205 {
		t.Errorf("chained socket pair latency = %d, want the 197-cycle link", lat)
	}
}

func TestPinUnpin(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, _ := NewFrom(tp, ConCoreHWC, Options{NThreads: 3})
	a, ok := pl.PinNext()
	if !ok || a != 0 {
		t.Fatalf("first pin = %d/%v", a, ok)
	}
	b, _ := pl.PinNext()
	c, _ := pl.PinNext()
	if _, ok := pl.PinNext(); ok {
		t.Error("fourth pin should fail")
	}
	pl.Unpin(b)
	d, ok := pl.PinNext()
	if !ok || d != b {
		t.Errorf("re-pin = %d/%v, want %d", d, ok, b)
	}
	_ = c
}

func TestPinNextConcurrent(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, _ := NewFrom(tp, ConHWC, Options{NThreads: 40})
	var wg sync.WaitGroup
	got := make(chan int, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c, ok := pl.PinNext(); ok {
				got <- c
			}
		}()
	}
	wg.Wait()
	close(got)
	seen := map[int]bool{}
	count := 0
	for c := range got {
		if seen[c] {
			t.Fatalf("context %d pinned twice", c)
		}
		seen[c] = true
		count++
	}
	if count != 40 {
		t.Errorf("pinned %d, want 40", count)
	}
}

func TestPoolSwitching(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pool, err := NewPool(tp, ConHWC, Options{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Current().Policy() != ConHWC {
		t.Error("initial policy wrong")
	}
	if err := pool.Set(RRCore, Options{NThreads: 8}); err != nil {
		t.Fatal(err)
	}
	if pool.Current().Policy() != RRCore {
		t.Error("switch did not take effect")
	}
	if err := pool.Set(PowerPolicy, Options{}); err != nil {
		t.Fatal(err)
	}
	// Switching to an unsupported policy fails and keeps the current one.
	opt := enriched(t, sim.SPARC())
	pool2, _ := NewPool(opt, ConHWC, Options{})
	if err := pool2.Set(PowerPolicy, Options{}); err == nil {
		t.Error("POWER on SPARC should fail")
	}
	if pool2.Current().Policy() != ConHWC {
		t.Error("failed switch should preserve current placement")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := Resolve(p.String())
		if err != nil || got != p {
			t.Errorf("Resolve(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := Resolve("con_hwc"); err != nil || p != ConHWC {
		t.Errorf("short lowercase parse failed: %v %v", p, err)
	}
	if _, err := Resolve("bogus"); err == nil {
		t.Error("bogus policy should fail")
	}
}
