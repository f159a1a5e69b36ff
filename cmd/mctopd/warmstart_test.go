package main

// Warm-start integration test: a daemon with a spool dir is exercised
// across all five golden platforms, "restarted" (a second server over a
// fresh registry and the same spool dir — exactly what a new process
// sees), and must answer every topology and placement byte-identically
// while performing zero inferences.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	mctop "repro"
	"repro/internal/registry"
	"repro/internal/spool"
)

// openSpool opens the spool in dir, failing t if it cannot.
func openSpool(t testing.TB, dir string) *spool.Spool {
	t.Helper()
	sp, err := spool.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// spoolServer builds a server whose registry chains the LRU over a spool
// in dir — the -spool-dir wiring of run().
func spoolServer(t *testing.T, dir string) (*server, *mctop.Registry) {
	t.Helper()
	reg := registry.New(registry.Options{MaxEntries: 256, Tiers: []registry.Store{openSpool(t, dir)}})
	t.Cleanup(func() { reg.Close() })
	return newServerWith(reg, 51, 4*runtime.GOMAXPROCS(0)), reg
}

// normalizePlace strips the timing field from a place response so two runs
// compare on content (context assignment, report, derived metrics).
func normalizePlace(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad place response %q: %v", body, err)
	}
	delete(m, "served_in")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestWarmStartServesSpoolWithZeroInferences(t *testing.T) {
	dir := t.TempDir()
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

	// Process 1: infer everything, then shut down gracefully (Close
	// flushes the spool, as main() does on SIGTERM).
	topoBytes := map[string][]byte{}
	placeBytes := map[string]string{}
	func() {
		s, reg := spoolServer(t, dir)
		ts := httptest.NewServer(s.routes())
		defer ts.Close()
		for _, p := range platforms {
			resp, body := get(t, ts, topoURL(p))
			if resp.StatusCode != 200 {
				t.Fatalf("%s: %d %s", p, resp.StatusCode, body)
			}
			topoBytes[p] = body
			for _, pol := range policies {
				resp, body := get(t, ts, placeURL(p, pol))
				if resp.StatusCode != 200 {
					t.Fatalf("%s/%s: %d %s", p, pol, resp.StatusCode, body)
				}
				placeBytes[p+"/"+pol] = normalizePlace(t, body)
			}
		}
		if st := reg.Stats(); st.Inferences != int64(len(platforms)) {
			t.Fatalf("inferring run: %d inferences for %d platforms", st.Inferences, len(platforms))
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	// Process 2: a fresh registry over the same spool dir.
	s2, reg2 := spoolServer(t, dir)
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()
	for _, p := range platforms {
		// Placements first: they must warm-start on their own (decoding
		// the topology they reference), not ride a prior topology request.
		for _, pol := range policies {
			resp, body := get(t, ts2, placeURL(p, pol))
			if resp.StatusCode != 200 {
				t.Fatalf("warm %s/%s: %d %s", p, pol, resp.StatusCode, body)
			}
			if got := normalizePlace(t, body); got != placeBytes[p+"/"+pol] {
				t.Fatalf("warm %s/%s placement differs:\n%s\nvs\n%s", p, pol, got, placeBytes[p+"/"+pol])
			}
		}
		resp, body := get(t, ts2, topoURL(p))
		if resp.StatusCode != 200 {
			t.Fatalf("warm %s: %d %s", p, resp.StatusCode, body)
		}
		if !bytes.Equal(body, topoBytes[p]) {
			t.Fatalf("warm %s description differs from the inferring run's", p)
		}
	}

	// The acceptance bar: the restarted daemon served everything with
	// zero inferences (and zero placement recomputes).
	st := reg2.Stats()
	if st.Inferences != 0 {
		t.Fatalf("warm start ran %d inferences, want 0 (stats: %+v)", st.Inferences, st)
	}
	if st.Placements != 0 {
		t.Fatalf("warm start recomputed %d placements, want 0", st.Placements)
	}
	if st.Hits == 0 {
		t.Fatalf("warm start reported no cache hits: %+v", st)
	}

	// /v1/stats exposes the per-tier breakdown, spool hits included.
	resp, body := get(t, ts2, "/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats struct {
		Inferences int64
		Tiers      []struct {
			Tier string
			Hits int64
		}
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Inferences != 0 {
		t.Fatalf("/v1/stats shows %d inferences on the warm daemon", stats.Inferences)
	}
	if len(stats.Tiers) != 2 || stats.Tiers[1].Tier != "spool" || stats.Tiers[1].Hits == 0 {
		t.Fatalf("/v1/stats tiers = %+v, want a spool tier with hits", stats.Tiers)
	}
}
