package main

// Two-daemon fleet integration test — the acceptance bar of the remote
// tier: an origin daemon with a spool, and an edge daemon whose store
// chains its LRU over a remote tier pointing at the origin (the -upstream
// wiring). The edge must serve topology and placement queries for all five
// golden platforms byte-identically to the origin with zero local
// inferences (remote-tier hits > 0 on /v1/stats), and must keep serving —
// via local re-inference — once the origin is killed mid-run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	mctop "repro"
	"repro/internal/registry"
	"repro/internal/remote"
)

// edgeServer builds a server whose registry chains an LRU over a remote
// tier against originURL — what `mctopd -upstream` wires up in main().
func edgeServer(t *testing.T, originURL string) (*server, *mctop.Registry) {
	t.Helper()
	rm := remote.New(originURL,
		remote.WithTimeout(30*time.Second),
		// A short negative-cache so the killed-origin phase of the test
		// does not idle in a backoff window.
		remote.WithNegTTL(10*time.Millisecond),
		remote.WithLogf(t.Logf))
	reg := registry.New(registry.Options{MaxEntries: 256, Tiers: []registry.Store{rm}})
	return newServerWith(reg, 51, 4*runtime.GOMAXPROCS(0)), reg
}

// tierStats decodes /v1/stats far enough to read per-tier counters.
func tierStats(t *testing.T, ts *httptest.Server) (inferences, placements int64, tiers map[string]int64) {
	t.Helper()
	resp, body := get(t, ts, "/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats struct {
		Inferences int64
		Placements int64
		Tiers      []struct {
			Tier string
			Hits int64
		}
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	tiers = map[string]int64{}
	for _, tier := range stats.Tiers {
		tiers[tier.Tier] += tier.Hits
	}
	return stats.Inferences, stats.Placements, tiers
}

func TestFleetEdgeServesOriginByteIdentically(t *testing.T) {
	platforms := mctop.Platforms()
	if len(platforms) != 5 {
		t.Fatalf("expected the five golden platforms, got %v", platforms)
	}
	policies := []string{"RR_CORE", "CON_HWC"}
	topoURL := func(p string) string {
		return fmt.Sprintf("/v1/topology?platform=%s&seed=42&format=mctop", p)
	}
	placeURL := func(p, pol string) string {
		return fmt.Sprintf("/v1/place?platform=%s&seed=42&policy=%s&threads=8", p, pol)
	}

	// Origin: a spool-backed daemon, warmed across every platform.
	originSrv, originReg := spoolServer(t, t.TempDir())
	origin := httptest.NewServer(originSrv.routes())
	defer origin.Close()
	topoBytes := map[string][]byte{}
	placeBytes := map[string]string{}
	for _, p := range platforms {
		resp, body := get(t, origin, topoURL(p))
		if resp.StatusCode != 200 {
			t.Fatalf("origin %s: %d %s", p, resp.StatusCode, body)
		}
		topoBytes[p] = body
		for _, pol := range policies {
			resp, body := get(t, origin, placeURL(p, pol))
			if resp.StatusCode != 200 {
				t.Fatalf("origin %s/%s: %d %s", p, pol, resp.StatusCode, body)
			}
			placeBytes[p+"/"+pol] = normalizePlace(t, body)
		}
	}
	originInferences := originReg.Stats().Inferences

	// Edge: no spool, remote tier against the origin.
	edgeSrv, _ := edgeServer(t, origin.URL)
	edge := httptest.NewServer(edgeSrv.routes())
	defer edge.Close()
	for _, p := range platforms {
		// Placements first: each must warm-start through a sidecar fetch
		// (plus its referenced topology), not ride a prior topology query.
		for _, pol := range policies {
			resp, body := get(t, edge, placeURL(p, pol))
			if resp.StatusCode != 200 {
				t.Fatalf("edge %s/%s: %d %s", p, pol, resp.StatusCode, body)
			}
			if got := normalizePlace(t, body); got != placeBytes[p+"/"+pol] {
				t.Fatalf("edge %s/%s placement differs from origin:\n%s\nvs\n%s", p, pol, got, placeBytes[p+"/"+pol])
			}
		}
		resp, body := get(t, edge, topoURL(p))
		if resp.StatusCode != 200 {
			t.Fatalf("edge %s: %d %s", p, resp.StatusCode, body)
		}
		if !bytes.Equal(body, topoBytes[p]) {
			t.Fatalf("edge %s description differs from origin's", p)
		}
	}

	// The acceptance bar: every query served from the origin's entries —
	// zero local inferences, zero local placement computes, remote hits.
	inferences, placements, tiers := tierStats(t, edge)
	if inferences != 0 {
		t.Fatalf("edge ran %d local inferences, want 0", inferences)
	}
	if placements != 0 {
		t.Fatalf("edge computed %d placements locally, want 0", placements)
	}
	if tiers["remote"] == 0 {
		t.Fatalf("edge /v1/stats shows no remote-tier hits: %v", tiers)
	}
	if got := originReg.Stats().Inferences; got != originInferences {
		t.Fatalf("serving the edge cost the origin %d extra inferences", got-originInferences)
	}

	// Kill the origin mid-run: a query the edge has never seen must now
	// degrade to local inference — the edge keeps serving.
	origin.Close()
	time.Sleep(20 * time.Millisecond) // let the edge's negative-cache window lapse
	resp, body := get(t, edge, "/v1/topology?platform=Ivy&seed=7&format=mctop")
	if resp.StatusCode != 200 {
		t.Fatalf("edge with dead origin: %d %s", resp.StatusCode, body)
	}
	inferences, _, _ = tierStats(t, edge)
	if inferences != 1 {
		t.Fatalf("edge with dead origin ran %d inferences, want 1 (local re-inference)", inferences)
	}
	// And the already-fetched entries keep serving from the edge's LRU.
	resp, body = get(t, edge, topoURL("Ivy"))
	if resp.StatusCode != 200 || !bytes.Equal(body, topoBytes["Ivy"]) {
		t.Fatalf("edge LRU no longer serves origin bytes after origin death: %d", resp.StatusCode)
	}
}

// TestFleetEdgeServesMappingFromOrigin: the mapping kind rides the same
// fleet plumbing. An origin warmed through POST /v1/map serves the .map
// sidecar over /v1/export; an edge posting the same DAG answers with the
// identical assignment and cost while running zero local mapping computes.
func TestFleetEdgeServesMappingFromOrigin(t *testing.T) {
	originSrv, originReg := spoolServer(t, t.TempDir())
	origin := httptest.NewServer(originSrv.routes())
	defer origin.Close()

	d := mapTestDAG()
	body := mapBody(t, mapRequest{topoParams: topoParams{Platform: "Haswell"}, Refine: 200, DAG: d})
	resp, raw := postMap(t, origin, body)
	if resp.StatusCode != 200 {
		t.Fatalf("origin map: %d %s", resp.StatusCode, raw)
	}
	var originResp mapResponse
	if err := json.Unmarshal(raw, &originResp); err != nil {
		t.Fatal(err)
	}
	if got := originReg.Stats().Mappings; got != 1 {
		t.Fatalf("origin ran %d mapping computes, want 1", got)
	}

	edgeSrv, edgeReg := edgeServer(t, origin.URL)
	edge := httptest.NewServer(edgeSrv.routes())
	defer edge.Close()
	resp, raw = postMap(t, edge, body)
	if resp.StatusCode != 200 {
		t.Fatalf("edge map: %d %s", resp.StatusCode, raw)
	}
	var edgeResp mapResponse
	if err := json.Unmarshal(raw, &edgeResp); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(edgeResp.Result.Assignment) != fmt.Sprint(originResp.Result.Assignment) ||
		edgeResp.Result.CostCycles != originResp.Result.CostCycles {
		t.Fatalf("edge mapping differs from origin:\n%+v\nvs\n%+v", edgeResp.Result, originResp.Result)
	}
	st := edgeReg.Stats()
	if st.Mappings != 0 {
		t.Fatalf("edge ran %d local mapping computes, want 0 (remote fetch)", st.Mappings)
	}
	if _, _, tiers := tierStats(t, edge); tiers["remote"] == 0 {
		t.Fatalf("edge /v1/stats shows no remote-tier hits: %v", tiers)
	}
	if got := originReg.Stats().Mappings; got != 1 {
		t.Fatalf("serving the edge cost the origin %d extra mapping computes", got-1)
	}
}

// TestFleetEdgeWithSpoolPersistsFetchedEntries: an edge with its own spool
// write-through-promotes fetched description files to disk, so a restarted
// edge serves them with zero inferences AND zero origin fetches — the
// fleet tier composes with the warm-start story.
func TestFleetEdgeWithSpoolPersistsFetchedEntries(t *testing.T) {
	originSrv, _ := spoolServer(t, t.TempDir())
	origin := httptest.NewServer(originSrv.routes())
	defer origin.Close()

	edgeDir := t.TempDir()
	newEdge := func(originURL string) (*server, *mctop.Registry) {
		reg := registry.New(registry.Options{MaxEntries: 256,
			Tiers: []registry.Store{openSpool(t, edgeDir), remote.New(originURL, remote.WithLogf(t.Logf))}})
		return newServerWith(reg, 51, 4*runtime.GOMAXPROCS(0)), reg
	}

	// Placement-only traffic is the hard case: the sidecar promotes into
	// the edge's spool via the tier chain, and the spool must persist the
	// referenced topology alongside it (the edge never Puts it itself) or
	// the restart below re-infers.
	placePath := "/v1/place?platform=Westmere&seed=42&policy=RR_CORE&threads=8"
	edgeSrv, edgeReg := newEdge(origin.URL)
	edge := httptest.NewServer(edgeSrv.routes())
	resp, body := get(t, edge, placePath)
	if resp.StatusCode != 200 {
		t.Fatalf("edge: %d %s", resp.StatusCode, body)
	}
	if err := edgeReg.Close(); err != nil {
		t.Fatal(err)
	}
	edge.Close()
	origin.Close() // the restarted edge must not need the origin at all

	edgeSrv2, edgeReg2 := newEdge(origin.URL)
	defer edgeReg2.Close()
	edge2 := httptest.NewServer(edgeSrv2.routes())
	defer edge2.Close()
	resp, body2 := get(t, edge2, placePath)
	if resp.StatusCode != 200 {
		t.Fatalf("restarted edge: %d %s", resp.StatusCode, body2)
	}
	if normalizePlace(t, body) != normalizePlace(t, body2) {
		t.Fatal("restarted edge serves a different placement than the fetched original")
	}
	if st := edgeReg2.Stats(); st.Inferences != 0 {
		t.Fatalf("restarted edge ran %d inferences, want 0 (spool warm-start)", st.Inferences)
	}
}
