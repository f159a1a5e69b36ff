package main

// The chaos acceptance tests: a two-daemon fleet (origin + spool-and-remote
// edge) under driveLoad while fault injection flaps the origin, truncates
// fetched bodies, tears spool writes and poisons spool reads. The serving
// contract is absolute — every 200 carries bytes identical to the
// healthy-phase goldens, failures are honest error statuses, nothing hangs
// — and the daemon must report its own damage: /readyz flips to 503 while
// tiers are degraded and back to 200 as they heal, and the spool's
// quarantine counter surfaces on /v1/stats. TestChaosFleetThroughRun holds
// the same contract at the daemon's real seams: both daemons are run(),
// the edge is armed by a -faults spec string, and the origin dies mid-run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/remote"
	"repro/internal/spool"
)

// chaosStats decodes the readiness and quarantine view of /v1/stats on the
// daemon at base.
func chaosStats(t *testing.T, base string) (ready bool, degraded []string, quarantined int64) {
	t.Helper()
	resp, body := getURL(t, base+"/v1/stats")
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

// garbageSpool returns a spool directory pre-seeded with on-disk
// corruption: the startup scan must quarantine the file, not choke on it
// or rescan it forever.
func garbageSpool(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.mctop"),
		[]byte("garbage, not a description file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestChaosMapperDegradesAndHeals drives the registry.map injection point
// through the hooks and probe run() wires for -faults (computeFaults): an
// injected mapping failure is an honest 503 + Retry-After (never a wrong
// assignment), warm mappings keep serving from cache throughout, /readyz
// flips to 503 with the mapper tier listed, and the first clean compute
// heals it back.
func TestChaosMapperDegradesAndHeals(t *testing.T) {
	fs := faultinject.New(11)
	infer, mapFn, mapperProbe := computeFaults(fs)
	s := newServerWith(registry.New(registry.Options{MaxEntries: 64, InferCtx: infer, MapFn: mapFn}), 51, 32)
	s.readiness = []readyProbe{mapperProbe}
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
	if ready, degraded, _ := chaosStats(t, ts.URL); ready || len(degraded) != 1 || degraded[0] != "mapper" {
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

	sp, err := spool.New(garbageSpool(t), spool.WithFaults(fs), spool.WithLogf(t.Logf))
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
	reg := registry.New(registry.Options{MaxEntries: 256, Tiers: []registry.Store{sp, rs}})
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

	ready, _, quarantined := chaosStats(t, edge.URL)
	if quarantined < 1 {
		t.Fatalf("startup scan quarantined %d files, want >= 1", quarantined)
	}
	if !ready {
		t.Fatal("daemon not ready before any fault")
	}

	goldens, ivy := new(sync.Map), []string{"Ivy"}

	// Phase 1 — healthy: seed the goldens the later phases are held to.
	if res := driveLoad(edge.URL, 40, ivy, goldens); res.errors != 0 {
		t.Fatalf("healthy phase: %+v", res)
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
	if res := driveLoad(edge.URL, 80, ivy, goldens); res.corrupt != 0 || res.hangs != 0 {
		t.Fatalf("chaos phase violated the contract: %+v", res)
	}
	// Drain the chaos phase's write-behind under its own faults: a spool
	// write it left queued would otherwise spend the one-shot fault armed
	// below, and the cold key's write would then succeed.
	if err := reg.Flush(); err != nil {
		t.Fatal(err)
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
	if ready, degraded, _ := chaosStats(t, edge.URL); ready || len(degraded) == 0 {
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

	// Phase 4 — recovered: the same goldens, every request answered.
	if res := driveLoad(edge.URL, 40, ivy, goldens); res.errors != 0 {
		t.Fatalf("recovery phase: %+v", res)
	}
}

// startDaemon runs the daemon's whole lifecycle, run(), on 127.0.0.1:0 and
// returns its base URL plus stop, which cancels it and returns what run
// returned. Cleanup stops a daemon the test left running.
func startDaemon(t *testing.T, cfg daemonConfig) (base string, stop func() error) {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	addr, errc := make(chan string, 1), make(chan error, 1)
	go func() { errc <- run(ctx, cfg, func(a string) { addr <- a }) }()
	stop = sync.OnceValue(func() error { cancel(); return <-errc })
	t.Cleanup(func() { stop() })
	select {
	case a := <-addr:
		return "http://" + a, stop
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
		return "", nil
	}
}

// TestChaosFleetThroughRun is the chaos run at the daemon's real seams:
// origin and edge are each a whole run() lifecycle, the edge configured as
// `mctopd -upstream <origin> -spool-dir <dir holding garbage>
// -request-timeout 60s -faults <spec>` would be, so the spec string itself
// flaps its upstream fetches and tears its spool writes. A healthy pass
// against the origin pins the goldens the edge is then held to; the origin
// is killed while the edge is under load, and the edge must degrade to
// local inference — golden bytes or honest errors, never corruption or a
// hang — and still shut down cleanly.
func TestChaosFleetThroughRun(t *testing.T) {
	if testing.Short() {
		t.Skip("two daemon lifecycles under load")
	}
	origin, stopOrigin := startDaemon(t, daemonConfig{cache: 256, reps: 51})
	edge, stopEdge := startDaemon(t, daemonConfig{
		cache:          256,
		reps:           51,
		upstream:       origin,
		spoolDir:       garbageSpool(t),
		requestTimeout: 60 * time.Second,
		faults:         "remote.fetch:mode=truncate,prob=0.3;remote.fetch:mode=refused,prob=0.3;spool.write:mode=torn,prob=0.2",
		faultsSeed:     1,
	})
	held := func(phase string, res loadResult) {
		t.Helper()
		t.Logf("%s: %+v", phase, res)
		if res.corrupt != 0 || res.hangs != 0 {
			t.Errorf("%s violated the contract: %+v", phase, res)
		}
	}

	// Healthy: the origin pins the goldens for the keys the edge is asked
	// for, and for one topology the edge first sees after the origin is gone.
	goldens, ivy, both := new(sync.Map), []string{"Ivy"}, []string{"Ivy", "Haswell"}
	if res := driveLoad(origin, 40, both, goldens); res.errors != 0 {
		t.Fatalf("healthy pass against the origin: %+v", res)
	}
	const cold = "/v1/topology?platform=Ivy&seed=9001&reps=51&format=mctop"
	resp, coldGolden := getURL(t, origin+cold)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("origin %s: %d", cold, resp.StatusCode)
	}

	// Faulted, origin up. While the origin serves, only an injected
	// refusal yields an origin_fault fetch: the spec reached the remote tier.
	held("faulted pass", driveLoad(edge, 120, ivy, goldens))
	if _, m := getURL(t, edge+"/metrics"); !bytes.Contains(m, []byte(`outcome="origin_fault"`)) {
		t.Error("no origin_fault fetch on the edge: the -faults spec never reached its remote tier")
	}

	// Faulted, origin killed while the load runs: Haswell keys the edge has
	// not fetched yet must come from its own inference.
	pass := make(chan loadResult, 1)
	go func() { pass <- driveLoad(edge, 120, both, goldens) }()
	if err := stopOrigin(); err != nil {
		t.Errorf("origin run returned %v, want nil", err)
	}
	held("origin killed mid-pass", <-pass)

	// With the origin gone, a topology the edge has never seen is inferred
	// locally — and is byte for byte the origin's answer.
	inferences := func() int64 {
		_, body := getURL(t, edge+"/v1/stats")
		return decodeStats(t, body).Inferences
	}
	before := inferences()
	resp, body := getURL(t, edge+cold)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, coldGolden) {
		t.Fatalf("edge without its origin: %s = %d, golden bytes: %v",
			cold, resp.StatusCode, bytes.Equal(body, coldGolden))
	}
	if after := inferences(); after <= before {
		t.Errorf("edge answered a never-seen topology without its origin in %d → %d inferences, want a local inference",
			before, after)
	}
	if _, _, quarantined := chaosStats(t, edge); quarantined < 1 {
		t.Errorf("startup scan quarantined %d files, want >= 1", quarantined)
	}
	if err := stopEdge(); err != nil {
		t.Errorf("edge run returned %v, want nil", err)
	}
}
