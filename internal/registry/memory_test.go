package registry

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/mctopalg"
	"repro/internal/topo"
)

// wideSpec is a synthetic machine of sockets × cores × smt contexts, the
// contexts of a core numbered consecutively: no inference, so a test can
// afford thousands of contexts.
func wideSpec(sockets, cores, smt int) topo.Spec {
	spec := topo.Spec{
		Name: "wide", Contexts: sockets * cores * smt, Nodes: sockets, SMTWays: smt,
		Levels: []topo.Level{
			{Name: "core", Kind: topo.LevelGroup, Min: 28, Median: 30, Max: 32},
			{Name: "socket", Kind: topo.LevelSocket, Min: 100, Median: 110, Max: 120},
			{Name: "cross", Kind: topo.LevelCross, Min: 290, Median: 300, Max: 310},
		},
		NodeOfSocket: make([]int, sockets),
		SocketLat:    make([][]int64, sockets),
	}
	for s := 0; s < sockets; s++ {
		var socket []int
		for c := 0; c < cores; c++ {
			var core []int
			for t := 0; t < smt; t++ {
				core = append(core, (s*cores+c)*smt+t)
			}
			spec.Levels[0].Groups = append(spec.Levels[0].Groups, core)
			socket = append(socket, core...)
		}
		spec.Levels[1].Groups = append(spec.Levels[1].Groups, socket)
		spec.NodeOfSocket[s] = s
		spec.SocketLat[s] = make([]int64, sockets)
		for o := range spec.SocketLat[s] {
			spec.SocketLat[s][o] = 300
		}
		spec.SocketLat[s][s] = 110
	}
	return spec
}

// TestCachedPlacementsRetainLinearMemory: the LRU bounds entries, not
// bytes, so what an entry retains is what the cache costs. Sixteen keys of
// 4096-context topologies, each placed once — which builds its query index
// — must retain at most 1 MiB a key, topology, index and placement
// included; a dense context×context latency table alone would be 128 MiB.
func TestCachedPlacementsRetainLinearMemory(t *testing.T) {
	const keys, perKey = 16, 1 << 20
	r := New(Options{MaxEntries: 2 * keys,
		InferCtx: func(context.Context, string, uint64, mctopalg.Options) (*topo.Topology, error) {
			return topo.FromSpec(wideSpec(4, 512, 2))
		}})
	opt := mctopalg.Options{Reps: 51}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seed := uint64(0); seed < keys; seed++ {
		if _, err := r.PlaceContext(bg, "wide", seed, opt, "RR_CORE", 8); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := r.Stats(); st.Entries != 2*keys || st.Evictions != 0 {
		t.Fatalf("want every topology and placement cached: %+v", st)
	}
	retained := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / keys
	if retained > perKey {
		t.Errorf("each cached key retains %d bytes, want <= %d", retained, perKey)
	}
	runtime.KeepAlive(r)
}
