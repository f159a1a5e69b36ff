package mctop

// Cross-module integration tests: the full pipeline — simulate, infer,
// enrich, serialize, place, and run every case study — per platform,
// exercising only the public facade plus the case-study packages, the way
// a downstream user would.

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/contend"
	"repro/internal/locks"
	"repro/internal/mapreduce"
	"repro/internal/msort"
	"repro/internal/omp"
	"repro/internal/place"
	"repro/internal/reduce"
	"repro/internal/sim"
)

func TestIntegrationAllPlatforms(t *testing.T) {
	for _, name := range Platforms() {
		name := name
		t.Run(name, func(t *testing.T) {
			top, res, err := InferDetailed(context.Background(), name, 1, WithReps(31))
			if err != nil {
				t.Fatal(err)
			}
			p, err := sim.ByName(name)
			if err != nil {
				t.Fatal(err)
			}

			// Structure vs ground truth (spot checks; exhaustive pair
			// validation lives in internal/mctopalg's tests).
			if top.NumHWContexts() != p.NumContexts() ||
				top.NumSockets() != p.Sockets || top.SMTWays() != p.SMT {
				t.Fatalf("dims: %d/%d/%d", top.NumHWContexts(), top.NumSockets(), top.SMTWays())
			}
			if res.SMT != (p.SMT > 1) {
				t.Errorf("SMT detection = %v", res.SMT)
			}
			for s := 0; s < p.Sockets; s++ {
				ctx := p.ContextOf(s*p.Cores, 0)
				if got := top.GetLocalNode(ctx).ID; got != p.LocalNode(s) {
					t.Errorf("socket %d local node = %d, want %d", s, got, p.LocalNode(s))
				}
			}

			// Serialization round trip.
			path := filepath.Join(t.TempDir(), name+".mct")
			if err := Save(path, top); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.MaxLatency() != top.MaxLatency() {
				t.Error("round trip changed MaxLatency")
			}

			// Every policy places cleanly.
			for _, pol := range place.Policies() {
				if pol == place.PowerPolicy && !top.Power().Available() {
					continue
				}
				if _, err := place.NewFrom(loaded, pol, place.Options{NThreads: 8}); err != nil {
					t.Errorf("policy %v: %v", pol, err)
				}
			}

			// Educated backoff on the contention simulator.
			threads := make([]int, 8)
			for i := range threads {
				threads[i] = i
			}
			_, _, ratio, err := contend.RelativeThroughput(contend.Config{
				Platform: p, Threads: threads, Alg: locks.AlgTicket,
				CSWork: 1000, PauseWork: 100, Horizon: 1_000_000,
			}, top.MaxLatency())
			if err != nil {
				t.Fatal(err)
			}
			if ratio <= 0 {
				t.Errorf("lock ratio = %f", ratio)
			}

			// Real sort through the topology.
			rng := rand.New(rand.NewSource(7))
			data := make([]int32, 50_000)
			for i := range data {
				data[i] = int32(rng.Int63())
			}
			if err := msort.MCTOPSort(data, loaded, 6, 0); err != nil {
				t.Fatal(err)
			}
			if !msort.SortedInt32(data) {
				t.Fatal("sort broken")
			}

			// Reduction tree across all sockets.
			var sockets []int
			for _, s := range loaded.Sockets() {
				sockets = append(sockets, s.ID)
			}
			plan, err := reduce.Tree(loaded, sockets, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.Validate(sockets); err != nil {
				t.Fatal(err)
			}

			// MapReduce with a placement.
			pl, err := place.NewFrom(loaded, place.RRCore, place.Options{NThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			counts, err := mapreduce.WordCount([]string{"x y x"}, 0, pl)
			if err != nil || counts["x"] != 2 {
				t.Fatalf("wordcount: %v %v", counts, err)
			}

			// The OpenMP runtime re-binds between regions.
			rt, err := omp.New(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.SetBindingPolicy(place.ConCoreHWC, place.Options{NThreads: 4}); err != nil {
				t.Fatal(err)
			}
			sum := make([]int, 4)
			rt.Parallel(func(tid, n, _ int) { sum[tid] = tid })
			if sum[3] != 3 {
				t.Error("parallel region did not run all members")
			}
		})
	}
}

// TestIntegrationDataRaceSurface runs the concurrent pieces together under
// one roof so `go test -race ./...` sweeps their interactions.
func TestIntegrationDataRaceSurface(t *testing.T) {
	top, err := Infer(context.Background(), "Ivy", 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.NewFrom(top, place.BalanceCore, place.Options{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		data := make([]int32, 80_000)
		for i := range data {
			data[i] = int32(len(data) - i)
		}
		if err := msort.MCTOPSortSSE(data, top, 6, 1); err != nil {
			t.Error(err)
		}
	}()
	counts, err := mapreduce.WordCount([]string{"a b a b c"}, 0, pl)
	if err != nil || counts["a"] != 2 {
		t.Fatalf("wordcount under concurrency: %v %v", counts, err)
	}
	<-doneCh
}
