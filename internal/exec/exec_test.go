package exec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/topo"
)

var (
	cacheMu sync.Mutex
	cache   = map[string]*topo.Topology{}
)

func enriched(t *testing.T, p *sim.Platform) *topo.Topology {
	t.Helper()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if tp, ok := cache[p.Name]; ok {
		return tp
	}
	m, err := machine.NewSim(p, 77)
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
	cache[p.Name] = tp
	return tp
}

func placed(t *testing.T, tp *topo.Topology, pol place.Policy, n int) []int {
	t.Helper()
	pl, err := place.NewFrom(tp, pol, place.Options{NThreads: n})
	if err != nil {
		t.Fatal(err)
	}
	return pl.Contexts()
}

func computeWL(cycles int64, smt float64) Workload {
	return Workload{Name: "compute", Phases: []Phase{{
		Name: "main", WorkCycles: cycles, SMTFriendly: smt,
	}}}
}

func TestComputeScalesWithCores(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	wl := computeWL(1e9, 0.3)
	r1, err := Estimate(tp, placed(t, tp, place.ConCore, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	r10, _ := Estimate(tp, placed(t, tp, place.ConCore, 10), wl)
	speedup := float64(r1.Cycles) / float64(r10.Cycles)
	if speedup < 9.5 || speedup > 10.5 {
		t.Errorf("10 unique cores speedup = %.2f, want ~10", speedup)
	}
}

func TestSMTSharingLimitsSpeedup(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	wl := computeWL(1e9, 0.3)
	// 20 threads on 20 unique cores vs on 10 cores (SMT pairs).
	unique, _ := Estimate(tp, placed(t, tp, place.ConCore, 20), wl)
	paired, _ := Estimate(tp, placed(t, tp, place.ConHWC, 20), wl)
	ratio := float64(paired.Cycles) / float64(unique.Cycles)
	// 10 cores * 1.3 = 13 effective vs 20 effective -> ~1.54x slower.
	if ratio < 1.4 || ratio > 1.7 {
		t.Errorf("SMT-paired/unique = %.2f, want ~1.54", ratio)
	}
}

func TestMemoryBoundPhase(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	wl := Workload{Name: "stream", Phases: []Phase{{
		Name: "sweep", Bytes: 8 << 30, Data: DataLocal,
	}}}
	// All traffic local on both sockets: limited by per-socket local BW.
	ctxs := placed(t, tp, place.BalanceCore, 10)
	r, err := Estimate(tp, ctxs, wl)
	if err != nil {
		t.Fatal(err)
	}
	// 4 GiB per socket over ~15.9 and ~8.37 GB/s: socket 1 is the
	// bottleneck: 4.29e9 bytes / 8.37e9 B/s = 0.51 s at 2.8 GHz.
	sec := r.Seconds
	if sec < 0.4 || sec > 0.7 {
		t.Errorf("streaming time = %.3f s, want ~0.51", sec)
	}
}

func TestRemoteTrafficSlower(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	mk := func(node int) Workload {
		return Workload{Name: "w", Phases: []Phase{{Bytes: 1 << 30, Data: node}}}
	}
	// Threads on socket 0 reading node 0 (local, 15.9 GB/s) vs node 1
	// (remote over the link, 7.5 GB/s). Socket 1 would not do: on the
	// paper-faithful asymmetric Ivy its local node is its *slowest* path.
	var s0 []int
	for _, c := range tp.Socket(0).Contexts[:5] {
		s0 = append(s0, c.ID)
	}
	local, _ := Estimate(tp, s0, mk(0))
	remote, _ := Estimate(tp, s0, mk(1))
	if remote.Cycles <= local.Cycles {
		t.Errorf("remote %.0f <= local %.0f cycles", float64(remote.Cycles), float64(local.Cycles))
	}
}

func TestSyncCostScalesWithSpread(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	wl := Workload{Name: "sync", Phases: []Phase{{
		WorkCycles: 1e6, SyncOps: 10000,
	}}}
	compact, _ := Estimate(tp, placed(t, tp, place.ConCoreHWC, 8), wl)
	var spread []int
	spread = append(spread, 0, 1, 2, 3, 10, 11, 12, 13) // both sockets
	sp, _ := Estimate(tp, spread, wl)
	if sp.Cycles <= compact.Cycles {
		t.Error("cross-socket sync should cost more than intra-socket")
	}
	// Compact sync pays the intra-socket latency per op.
	wantMin := int64(10000) * 100
	if compact.PerPhase[0].SyncCycles < wantMin {
		t.Errorf("sync cycles = %d, want >= %d", compact.PerPhase[0].SyncCycles, wantMin)
	}
}

func TestSerialAmdahl(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	wl := Workload{Name: "amdahl", Phases: []Phase{{
		WorkCycles: 1e8, SerialCycles: 1e8,
	}}}
	r1, _ := Estimate(tp, placed(t, tp, place.ConCore, 1), wl)
	r20, _ := Estimate(tp, placed(t, tp, place.ConCore, 20), wl)
	speedup := float64(r1.Cycles) / float64(r20.Cycles)
	if speedup > 2.1 {
		t.Errorf("speedup = %.2f despite 50%% serial fraction", speedup)
	}
}

func TestEnergyOnlyOnIntel(t *testing.T) {
	ivy := enriched(t, sim.Ivy())
	opt := enriched(t, sim.Opteron())
	wl := computeWL(1e9, 0.3)
	ri, _ := Estimate(ivy, placed(t, ivy, place.ConCoreHWC, 8), wl)
	if ri.EnergyJ <= 0 {
		t.Error("Ivy should report energy")
	}
	ro, _ := Estimate(opt, placed(t, opt, place.ConCoreHWC, 8), wl)
	if ro.EnergyJ != 0 {
		t.Error("Opteron energy should be 0 (no RAPL)")
	}
}

// TestPowerPolicyTradesTimeForEnergy is the Figure 11 mechanism: the POWER
// placement is slower but consumes less energy than the performance
// placement.
func TestPowerPolicyTradesTimeForEnergy(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	wl := Workload{Name: "kmeans-ish", Phases: []Phase{{
		WorkCycles: 2e9, SMTFriendly: 0.65, Bytes: 1 << 28, Data: DataLocal, SyncOps: 2000,
	}}, Iterations: 3}
	// Performance-oriented: 20 unique cores across both sockets; POWER
	// compacts SMT pairs onto one socket ("using fewer physical cores").
	perf, _ := Estimate(tp, placed(t, tp, place.ConCore, 20), wl)
	power, _ := Estimate(tp, placed(t, tp, place.PowerPolicy, 20), wl)
	if power.Cycles <= perf.Cycles {
		t.Error("POWER placement should be slower")
	}
	if power.EnergyJ >= perf.EnergyJ {
		t.Errorf("POWER energy %.1f J should beat performance %.1f J", power.EnergyJ, perf.EnergyJ)
	}
	slower := float64(power.Cycles) / float64(perf.Cycles)
	cheaper := power.EnergyJ / perf.EnergyJ
	if slower > 1.6 {
		t.Errorf("POWER slowdown %.2f too extreme", slower)
	}
	if cheaper > 0.98 {
		t.Errorf("POWER energy ratio %.2f, want < 1", cheaper)
	}
}

func TestEstimateValidation(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	if _, err := Estimate(tp, nil, computeWL(1, 0)); err == nil {
		t.Error("empty placement should fail")
	}
	if _, err := Estimate(tp, []int{999}, computeWL(1, 0)); err == nil {
		t.Error("bad context should fail")
	}
	// Unpinned slots are tolerated.
	if _, err := Estimate(tp, []int{-1, -1}, computeWL(1, 0)); err != nil {
		t.Errorf("unpinned slots: %v", err)
	}
}

func TestIterationsMultiply(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	wl := computeWL(1e8, 0.3)
	one, _ := Estimate(tp, placed(t, tp, place.ConCore, 4), wl)
	wl.Iterations = 5
	five, _ := Estimate(tp, placed(t, tp, place.ConCore, 4), wl)
	if five.Cycles != 5*one.Cycles {
		t.Errorf("5 iterations = %d cycles, want %d", five.Cycles, 5*one.Cycles)
	}
}
