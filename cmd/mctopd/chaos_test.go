package main

// The chaos acceptance test: a two-daemon fleet (origin + spool-and-remote
// edge) under the closed-loop load harness while fault injection flaps the
// origin, truncates fetched bodies, tears spool writes and poisons spool
// reads. The serving contract is absolute — every 200 carries bytes
// identical to the healthy-phase goldens, failures are honest error
// statuses, nothing hangs — and the daemon must report its own damage:
// /readyz flips to 503 while tiers are degraded and back to 200 as they
// heal, and the spool's quarantine counter surfaces on /v1/stats.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	mctop "repro"
	"repro/internal/faultinject"
	"repro/internal/loadgen"
	"repro/internal/mctoperr"
	"repro/internal/remote"
	"repro/internal/spool"
)

// chaosStats decodes the readiness and quarantine view of /v1/stats.
func chaosStats(t *testing.T, ts *httptest.Server) (ready bool, degraded []string, quarantined int64) {
	t.Helper()
	resp, body := get(t, ts, "/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st struct {
		Ready    bool `json:"ready"`
		Degraded []struct {
			Tier string `json:"tier"`
		} `json:"degraded"`
		Tiers []struct {
			Quarantined int64 `json:"quarantined"`
		} `json:"tiers"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, d := range st.Degraded {
		degraded = append(degraded, d.Tier)
	}
	for _, tier := range st.Tiers {
		quarantined += tier.Quarantined
	}
	return st.Ready, degraded, quarantined
}

// TestChaosMapperDegradesAndHeals drives the registry.map injection point
// through the same wiring run() builds for -faults: an injected mapping
// failure is an honest 503 + Retry-After (never a wrong assignment), warm
// mappings keep serving from cache throughout, /readyz flips to 503 with
// the mapper tier listed, and the first clean compute heals it back.
func TestChaosMapperDegradesAndHeals(t *testing.T) {
	fs := faultinject.New(11)
	var mapperFailed atomic.Bool
	reg := mctop.NewRegistry(64, mctop.WithMapWrapper(func(next mctop.MapFunc) mctop.MapFunc {
		return func(ctx context.Context, top *mctop.Topology, d *mctop.TaskDAG, opt mctop.MapOptions) (*mctop.Mapping, error) {
			if o, fired := fs.Eval(faultinject.RegistryMap); fired {
				if err := o.Delay(ctx); err != nil {
					return nil, err
				}
				if o.Mode != "slow" {
					mapperFailed.Store(true)
					return nil, fmt.Errorf("%w: mapper: %v", mctoperr.ErrSaturated, o.Err(faultinject.RegistryMap))
				}
			}
			m, err := next(ctx, top, d, opt)
			if err == nil {
				mapperFailed.Store(false)
			}
			return m, err
		}
	}))
	s := newServerWith(reg, 51, 32)
	s.readiness = []readyProbe{{tier: "mapper", check: func() (bool, string) {
		if mapperFailed.Load() {
			return true, "last mapping compute failed"
		}
		return false, ""
	}}}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	warm := mapBody(t, mapRequest{topoParams: topoParams{Platform: "Ivy"}, DAG: mapTestDAG()})
	cold := func(name string) string {
		d := mapTestDAG()
		d.Name = name
		d.Nodes[0].Work += int64(len(name)) // distinct hash → cache miss
		return mapBody(t, mapRequest{topoParams: topoParams{Platform: "Ivy"}, DAG: d})
	}

	// Healthy: warm one mapping, readiness green.
	if resp, raw := postMap(t, ts, warm); resp.StatusCode != 200 {
		t.Fatalf("healthy map: %d %s", resp.StatusCode, raw)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != 200 {
		t.Fatalf("/readyz = %d before any fault", resp.StatusCode)
	}

	// Two computes fail; cache hits never touch the injection point.
	fs.Add(faultinject.Fault{Point: faultinject.RegistryMap, Mode: "fail", Count: 2})
	for i := 0; i < 2; i++ {
		resp, raw := postMap(t, ts, cold(fmt.Sprintf("miss-%d", i)))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("faulted map %d: %d %s, want 503", i, resp.StatusCode, raw)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("faulted map %d: 503 without Retry-After", i)
		}
	}
	if resp, raw := postMap(t, ts, warm); resp.StatusCode != 200 {
		t.Fatalf("warm map during faults: %d %s, want cached 200", resp.StatusCode, raw)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with failed mapper, want 503", resp.StatusCode)
	}
	if ready, degraded, _ := chaosStats(t, ts); ready || len(degraded) != 1 || degraded[0] != "mapper" {
		t.Fatalf("stats hide the mapper degradation: ready=%v degraded=%v", ready, degraded)
	}

	// The rules are spent: the next fresh compute succeeds and heals.
	if resp, raw := postMap(t, ts, cold("heal")); resp.StatusCode != 200 {
		t.Fatalf("post-fault map: %d %s", resp.StatusCode, raw)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != 200 {
		t.Fatalf("/readyz = %d after a clean compute, want 200", resp.StatusCode)
	}
}

func TestChaosFleetServesOnlyGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos integration run")
	}
	originSrv, _ := spoolServer(t, t.TempDir())
	origin := httptest.NewServer(originSrv.routes())
	defer origin.Close()

	// One fault set drives every injection point on the edge; rules are
	// added and cleared per phase.
	fs := faultinject.New(7)

	// Pre-seeded on-disk corruption: the startup scan must quarantine this
	// file, not choke on it or rescan it forever.
	edgeDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(edgeDir, "deadbeef.mctop"),
		[]byte("garbage, not a description file\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	sp, err := spool.New(edgeDir, spool.WithFaults(fs), spool.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	rs := remote.New(origin.URL,
		remote.WithHTTPClient(&http.Client{
			Transport: faultinject.Transport(fs, faultinject.RemoteFetch, http.DefaultTransport),
		}),
		// Short windows so the heal phase is seconds, not the defaults.
		remote.WithNegTTL(100*time.Millisecond),
		remote.WithBackoffMax(500*time.Millisecond),
		remote.WithRetries(1, 2*time.Millisecond),
		remote.WithLogf(t.Logf))
	reg := mctop.NewRegistry(0, mctop.WithStore(
		mctop.NewTieredStore(mctop.NewLRUStore(256), sp, rs)))
	defer reg.Close()
	s := newServerWith(reg, 51, 32)
	s.readiness = []readyProbe{ // the probes run() wires for -spool-dir + -upstream
		{tier: "spool", check: sp.Degraded},
		{tier: "remote", check: func() (bool, string) {
			b := rs.Backoff()
			if !b.DownUntil.IsZero() && time.Now().Before(b.DownUntil) {
				return true, "origin backoff window open"
			}
			return false, ""
		}},
	}
	edge := httptest.NewServer(s.routes())
	defer edge.Close()

	ready, _, quarantined := chaosStats(t, edge)
	if quarantined < 1 {
		t.Fatalf("startup scan quarantined %d files, want >= 1", quarantined)
	}
	if !ready {
		t.Fatal("daemon not ready before any fault")
	}

	state := loadgen.NewChaosState()
	runLoad := func(n int64) *loadgen.Report {
		t.Helper()
		rep, err := loadgen.Run(context.Background(), loadgen.Config{
			Target:       edge.URL,
			Workers:      3,
			Duration:     2 * time.Minute, // the request bound fires first
			MaxRequests:  n,
			Mix:          loadgen.Mix{Topology: 2, Place: 2, MapDAG: 1, Batch: 1, Stream: 1},
			Platforms:    []string{"Ivy"},
			Reps:         51,
			WarmSeeds:    2,
			Policies:     []string{"RR_CORE", "RR_HWC"},
			BatchSize:    4,
			MaxThreads:   8,
			Seed:         1,
			Chaos:        true,
			ChaosTimeout: 30 * time.Second,
			ChaosState:   state,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Phase 1 — healthy: seed the goldens the later phases are held to.
	rep := runLoad(40)
	if rep.Corrupt != 0 || rep.Hangs != 0 || !rep.OK() {
		t.Fatalf("healthy phase violated the contract: corrupt=%d hangs=%d fails=%v",
			rep.Corrupt, rep.Hangs, rep.SLOFailures)
	}

	// Phase 2 — chaos: the edge must keep serving golden bytes (local
	// re-inference is the escape hatch behind every degraded tier), with
	// zero hangs. Honest 5xx are allowed; corrupt 200s are not.
	fs.Add(
		faultinject.Fault{Point: faultinject.RemoteFetch, Mode: "refused", Prob: 0.4},
		faultinject.Fault{Point: faultinject.RemoteFetch, Mode: "truncate", Prob: 0.4},
		faultinject.Fault{Point: faultinject.RemoteFetch, Mode: "status", Status: 503, Prob: 0.5},
		faultinject.Fault{Point: faultinject.SpoolWrite, Mode: "torn", Prob: 0.3},
		faultinject.Fault{Point: faultinject.SpoolRead, Mode: "fail", Prob: 0.3},
	)
	rep = runLoad(80)
	if rep.Corrupt != 0 {
		t.Fatalf("chaos phase served %d corrupt responses", rep.Corrupt)
	}
	if rep.Hangs != 0 {
		t.Fatalf("chaos phase hung %d requests", rep.Hangs)
	}

	// Deterministic degradation: exactly one failed spool write flips the
	// spool probe, and a refused fetch (or the window phase 2 left open)
	// keeps the remote probe down. A cold key misses every local tier, is
	// inferred locally, and its spool write fails; Flush is the barrier
	// guaranteeing the write-behind ran before /readyz is read.
	fs.Reset()
	fs.Add(
		faultinject.Fault{Point: faultinject.SpoolWrite, Mode: "enospc", Count: 1},
		faultinject.Fault{Point: faultinject.RemoteFetch, Mode: "refused", Count: 2},
	)
	get(t, edge, "/v1/topology?platform=Ivy&seed=9001")
	if err := reg.Flush(); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, edge, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with degraded tiers, want 503", resp.StatusCode)
	}
	if ready, degraded, _ := chaosStats(t, edge); ready || len(degraded) == 0 {
		t.Fatalf("stats hide the degradation: ready=%v degraded=%v", ready, degraded)
	}

	// Phase 3 — heal: faults off, a good write clears the spool flag, the
	// backoff window expires, and /readyz flips back to 200.
	fs.Disable()
	get(t, edge, "/v1/topology?platform=Ivy&seed=9002")
	if err := reg.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := get(t, edge, "/readyz")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never recovered (last status %d)", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 4 — recovered: the same goldens, a clean SLO pass.
	rep = runLoad(40)
	if rep.Corrupt != 0 || rep.Hangs != 0 || !rep.OK() {
		t.Fatalf("recovery phase violated the contract: corrupt=%d hangs=%d fails=%v",
			rep.Corrupt, rep.Hangs, rep.SLOFailures)
	}
}
