package omp

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/topo"
)

var (
	topoMu    sync.Mutex
	topoCache = map[string]*topo.Topology{}
)

func enriched(t *testing.T, p *sim.Platform) *topo.Topology {
	t.Helper()
	topoMu.Lock()
	defer topoMu.Unlock()
	if tp, ok := topoCache[p.Name]; ok {
		return tp
	}
	m, err := machine.NewSim(p, 55)
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

func TestParallelForCoversRange(t *testing.T) {
	rt, err := New(enriched(t, sim.Ivy()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetBindingPolicy(place.ConCoreHWC, place.Options{NThreads: 8}); err != nil {
		t.Fatal(err)
	}
	n := 10000
	var hits = make([]int32, n)
	rt.ParallelFor(n, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
}

func TestParallelBindsTeam(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	rt, _ := New(tp)
	if err := rt.SetBindingPolicy(place.ConCoreHWC, place.Options{NThreads: 10}); err != nil {
		t.Fatal(err)
	}
	if rt.NumThreads() != 10 {
		t.Fatalf("team size = %d", rt.NumThreads())
	}
	seen := make([]int, 0, 10)
	var mu sync.Mutex
	rt.Parallel(func(tid, nt, hwctx int) {
		mu.Lock()
		seen = append(seen, hwctx)
		mu.Unlock()
	})
	if len(seen) != 10 {
		t.Fatalf("team ran %d members", len(seen))
	}
	// All contexts valid, distinct, on socket 0 (CON_CORE_HWC with 10
	// threads = socket 0's unique cores).
	set := map[int]bool{}
	for _, c := range seen {
		if c < 0 || set[c] {
			t.Fatalf("bad binding %v", seen)
		}
		set[c] = true
		if tp.Context(c).Socket.ID != 0 {
			t.Errorf("ctx %d not on socket 0", c)
		}
	}
	// Bindings are released: a second region must succeed.
	rt.Parallel(func(tid, nt, hwctx int) {})
	if got := rt.LastBinding(); len(got) != 10 {
		t.Errorf("LastBinding = %v", got)
	}
}

// TestPolicySwitchBetweenRegions is the paper's headline capability:
// placement policies change at runtime between parallel regions.
func TestPolicySwitchBetweenRegions(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	rt, _ := New(tp)
	if err := rt.SetBindingPolicy(place.ConCoreHWC, place.Options{NThreads: 4}); err != nil {
		t.Fatal(err)
	}
	rt.Parallel(func(_, _, _ int) {})
	first := rt.LastBinding()

	if err := rt.SetBindingPolicy(place.RRCore, place.Options{NThreads: 4}); err != nil {
		t.Fatal(err)
	}
	rt.Parallel(func(_, _, _ int) {})
	second := rt.LastBinding()

	// CON_CORE_HWC keeps 4 threads on socket 0; RR spreads them 2/2.
	sockets := func(ctxs []int) map[int]int {
		m := map[int]int{}
		for _, c := range ctxs {
			m[tp.Context(c).Socket.ID]++
		}
		return m
	}
	if len(sockets(first)) != 1 {
		t.Errorf("CON region spanned %v", sockets(first))
	}
	if len(sockets(second)) != 2 {
		t.Errorf("RR region spanned %v", sockets(second))
	}
}

func TestDefaultIsUnpinned(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	rt, _ := New(tp)
	if rt.BindingPolicy() != place.None {
		t.Error("default policy should be NONE (libgomp behaviour)")
	}
	rt.Parallel(func(tid, nt, hwctx int) {
		if hwctx != -1 {
			t.Errorf("default region pinned to %d", hwctx)
		}
	})
}

func TestAutoSelectPicksAndInstalls(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	rt, _ := New(tp)
	g := graph.GenPowerLaw(2000, 6, 1)
	pol, err := rt.AutoSelect(
		[]place.Policy{place.ConCoreHWC, place.BalanceCore},
		place.Options{NThreads: 4},
		func() { graph.PageRank(g, 2, 0.85, rt.NumThreads()) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if pol != rt.BindingPolicy() {
		t.Error("chosen policy not installed")
	}
	if _, err := rt.AutoSelect(nil, place.Options{}, func() {}); err == nil {
		t.Error("empty candidates should fail")
	}
}

// TestFig12Shape: MCTOP MP beats default OpenMP on the four x86 platforms
// (average ~22% in the paper), PageRank selects a Balance policy, the
// others a compact-cores one.
func TestFig12Shape(t *testing.T) {
	platforms := []*sim.Platform{sim.Ivy(), sim.Opteron(), sim.Haswell(), sim.Westmere()}
	var sum float64
	var count int
	for _, p := range platforms {
		tp := enriched(t, p)
		rows, err := ModelFig12(tp)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("%s: %d rows", p.Name, len(rows))
		}
		for _, r := range rows {
			if r.RelTime > 1.10 {
				t.Errorf("%s/%s: rel time %.3f too high", r.Platform, r.Kernel, r.RelTime)
			}
			sum += r.RelTime
			count++
			if r.Kernel == KPageRank && r.Threads < p.NumContexts() {
				// Sub-machine PageRank selections must spread for
				// bandwidth; at full machine all policies coincide.
				if r.Chosen != place.BalanceCore && r.Chosen != place.BalanceHWC {
					t.Errorf("%s: PageRank picked %v, want a Balance policy", r.Platform, r.Chosen)
				}
			}
			if r.Kernel == KHopDistance || r.Kernel == KPotentialFr {
				// When the winner uses the whole machine, every policy
				// produces the identical context set and the label carries
				// no information — only check sub-machine selections.
				if r.Threads < p.NumContexts() &&
					(r.Chosen == place.BalanceCore || r.Chosen == place.BalanceHWC || r.Chosen == place.RRCore) {
					t.Errorf("%s/%s picked spread policy %v, want compact", r.Platform, r.Kernel, r.Chosen)
				}
			}
		}
	}
	avg := sum / float64(count)
	if avg > 0.95 || avg < 0.5 {
		t.Errorf("average rel time = %.3f, want roughly 0.6-0.9 (paper: ~0.78)", avg)
	}
}

// TestCombinationSwitchBeatsFixed: no single fixed placement for the
// Combination workload matches per-region re-binding.
func TestCombinationSwitchBeatsFixed(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	fixed, err := BestFixed(tp)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := AdaptiveCombination(tp)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive >= fixed {
		t.Errorf("adaptive %d cycles >= best fixed %d", adaptive, fixed)
	}
}

func TestModelValidation(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	wl := KernelProfile(KCombination, tp)
	if wl.Name != "" {
		t.Error("Combination has no single profile")
	}
}

func TestParallelForDynamic(t *testing.T) {
	rt, err := New(enriched(t, sim.Ivy()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetBindingPolicy(place.RRCore, place.Options{NThreads: 6}); err != nil {
		t.Fatal(err)
	}
	n := 12345
	hits := make([]int32, n)
	rt.ParallelForDynamic(n, 7, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
	// Chunk larger than n still covers everything exactly once.
	small := make([]int32, 5)
	rt.ParallelForDynamic(5, 100, func(i int) { atomic.AddInt32(&small[i], 1) })
	for i, h := range small {
		if h != 1 {
			t.Fatalf("small index %d executed %d times", i, h)
		}
	}
}
