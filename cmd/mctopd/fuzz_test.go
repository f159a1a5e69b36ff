package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	mctop "repro"
	"repro/internal/mctoperr"
	"repro/internal/registry"
	"repro/internal/topo"
)

// FuzzTopoParams drives the GET endpoints' parameter parsing (query, then
// resolve and validatePlatform) with arbitrary raw query strings on a
// default server (-max-contexts 2048). A refusal is a client error — 400,
// 404 or 413, never a 500 — and an accepted query resolves reps within
// validateReps' 1..10000. The seed corpus (testdata/fuzz/FuzzTopoParams)
// holds every golden name, valid, over-bound, overflowing and non-canonical
// gen: specs, out-of-range reps, an overflowing seed and a bad sampling
// flag, so `go test` runs it as plain tests; `go test -fuzz FuzzTopoParams
// ./cmd/mctopd` explores.
func FuzzTopoParams(f *testing.F) {
	s := testServer()
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/topology", RawQuery: rawQuery}}
		_, _, opt, err := s.query(r)
		if err != nil {
			switch code := statusOf(err); code {
			case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("query %q: status %d for %v, want 400, 404 or 413", rawQuery, code, err)
			}
			return
		}
		if opt.Reps < 1 || opt.Reps > 10000 {
			t.Fatalf("query %q accepted with reps %d, want 1..10000", rawQuery, opt.Reps)
		}
	})
}

// FuzzMapBody is differential over POST /v1/map: each raw body goes to a
// fresh server and to a warm server that has already answered it twice (so
// a 200 there comes from the body-digest alias). Both must answer the same
// status and, modulo served_in, the same bytes, and never a 500. Each input
// gets two new servers, each over its own registry, so an input always
// runs the same code (the fuzzer's coverage signal stays deterministic).
// The registries infer only the golden inputs (seed 42, 51 reps, from the
// fixtures, loaded once) and refuse anything else with 413, so the fuzzer
// cannot wander into minutes-long inferences. The seeds are a body shaped
// like the benchmark's (48 tasks), trailing garbage, a body one byte over
// the 1 MiB limit, an unknown field, a DAG batch, an empty DAG name and a
// DAG name that smuggles lines into the mapping's .map file.
func FuzzMapBody(f *testing.F) {
	_, golden := goldenOnly(f)

	ok := `{"platform": "Ivy", "seed": 42, "reps": 51, "dag": ` + dagJSON(`"d"`) + "}"
	f.Add([]byte(benchShapedMapBody()))
	f.Add([]byte(ok + "garbage"))
	f.Add([]byte(ok + strings.Repeat(" ", maxBodyBytes+1-len(ok))))
	f.Add([]byte(`{"platform": "Ivy", "seed": 42, "reps": 51, "bogus": 1, "dag": ` + dagJSON(`"d"`) + "}"))
	f.Add([]byte(`{"platform": "Westmere", "seed": 42, "reps": 51, "refine": 20, "dags": [` + dagJSON(`"a"`) + `, ` + dagJSON(`"b"`) + `]}`))
	f.Add([]byte(`{"platform": "Haswell", "seed": 42, "reps": 51, "dag": ` + dagJSON(`""`) + "}\n"))
	f.Add([]byte(`{"platform": "Ivy", "seed": 42, "reps": 51, "dag": {"name": "x\ndag e4de9efe3ee067b3 2 1\nalgo evil\ncost 1\nassign 39 39\nend", ` +
		`"nodes": [{"id": 0, "work": 1000}, {"id": 1, "work": 1000}], "edges": [{"from": 0, "to": 1, "volume": 4096}]}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		warm := newServerWith(registry.New(golden), 51, 0).routes()
		for i := 0; i < 2; i++ {
			serve(warm, http.MethodPost, "/v1/map", string(body))
		}
		got := serve(warm, http.MethodPost, "/v1/map", string(body))
		want := serve(newServerWith(registry.New(golden), 51, 0).routes(), http.MethodPost, "/v1/map", string(body))
		if got.Code == http.StatusInternalServerError || want.Code == http.StatusInternalServerError {
			t.Fatalf("500: warm %s, fresh %s", got.Body, want.Body)
		}
		if got.Code != want.Code {
			t.Fatalf("warm status %d, fresh %d\nwarm: %s\nfresh: %s", got.Code, want.Code, got.Body, want.Body)
		}
		if g, w := withoutServedIn(got.Body.Bytes()), withoutServedIn(want.Body.Bytes()); !bytes.Equal(g, w) {
			t.Fatalf("warm body differs from fresh:\n%s\nfresh:\n%s", g, w)
		}
	})
}

// FuzzPlaceParams drives GET /v1/place with arbitrary raw query strings,
// its policy and threads parameters included, on a default server whose
// registry infers only the golden inputs (seed 42, 51 reps; other inputs
// answer 413). A query answers 200, 400, 404 or 413, never a 500, and a 200
// names only context ids of the platform's golden topology. The seeds are
// every golden platform with a builtin policy, a policy without its
// MCTOP_PLACE_ prefix, an unknown policy, POWER off Intel, a missing
// policy, negative, overflowing, non-numeric and oversubscribed thread
// counts, and a non-golden seed; testdata/fuzz/FuzzPlaceParams adds a
// query holding control characters.
func FuzzPlaceParams(f *testing.F) {
	goldens, golden := goldenOnly(f)
	for _, q := range []string{
		"platform=Ivy&seed=42&reps=51&policy=MCTOP_PLACE_RR_CORE&threads=8",
		"platform=Westmere&seed=42&policy=CON_HWC&threads=30",
		"platform=Haswell&seed=42&policy=BALANCE&threads=0",
		"platform=Opteron&seed=42&policy=POWER&threads=4",
		"platform=SPARC&seed=42&policy=SEQUENTIAL&threads=256",
		"platform=Ivy&seed=42&policy=NO_SUCH_POLICY&threads=8",
		"platform=Ivy&seed=42&threads=8",
		"platform=Ivy&seed=42&policy=RR_CORE&threads=-1",
		"platform=Ivy&seed=42&policy=RR_CORE&threads=99999999999999999999",
		"platform=Ivy&seed=42&policy=RR_CORE&threads=eight",
		"platform=Ivy&seed=42&policy=RR_CORE&threads=41",
		"platform=Ivy&seed=7&policy=RR_CORE&threads=8",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		// A new server per input, as in FuzzMapBody: the same input always
		// runs the same code.
		h := newServerWith(registry.New(golden), 51, 0).routes()
		r := httptest.NewRequest(http.MethodGet, "/v1/place", nil)
		r.URL.RawQuery = rawQuery // raw: bytes no client library would send
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("query %q: status %d: %s", rawQuery, rec.Code, rec.Body)
		}
		var resp placeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("query %q: 200 body does not decode: %v", rawQuery, err)
		}
		n := goldens[strings.ToLower(resp.Platform)].NumHWContexts()
		for _, c := range resp.Contexts {
			if c < 0 || c >= n {
				t.Fatalf("query %q: context %d on a %d-context %s", rawQuery, c, n, resp.Platform)
			}
		}
	})
}

// goldenOnly loads the five golden topologies (seed 42, 51 reps) by
// lower-cased platform name, and the registry options whose inference
// serves them and refuses every other input with 413, so a fuzzer cannot
// wander into minutes-long inferences.
func goldenOnly(f *testing.F) (map[string]*mctop.Topology, registry.Options) {
	goldens := make(map[string]*mctop.Topology)
	for _, p := range mctop.Platforms() {
		t, err := topo.LoadFile("../../internal/topo/testdata/" + strings.ToLower(p) + ".mctop")
		if err != nil {
			f.Fatal(err)
		}
		goldens[strings.ToLower(p)] = t
	}
	return goldens, registry.Options{MaxEntries: 16,
		InferCtx: func(_ context.Context, platform string, seed uint64, opt mctop.Options) (*mctop.Topology, error) {
			t := goldens[strings.ToLower(platform)]
			if t == nil || seed != 42 || opt.Normalized().Reps != 51 || opt.Sampling {
				return nil, fmt.Errorf("%w: this daemon infers only the golden inputs", mctoperr.ErrTooLarge)
			}
			return t, nil
		}}
}

// benchShapedMapBody is a /v1/map body like the benchmark's: a 48-task DAG
// of 6 layers of 8, each task fed by 1-3 tasks of the layer above, marshalled
// the way its client marshals one.
func benchShapedMapBody() string {
	type node struct {
		ID   int   `json:"id"`
		Work int64 `json:"work"`
	}
	type edge struct {
		From   int   `json:"from"`
		To     int   `json:"to"`
		Volume int64 `json:"volume"`
	}
	var d struct {
		Name  string `json:"name"`
		Nodes []node `json:"nodes"`
		Edges []edge `json:"edges"`
	}
	d.Name = "bench-0"
	x := uint64(1)
	next := func(n uint64) int64 { x = x*6364136223846793005 + 1442695040888963407; return int64(x >> 33 % n) }
	for l := 0; l < 6; l++ {
		for i := 0; i < 8; i++ {
			id := l*8 + i
			d.Nodes = append(d.Nodes, node{ID: id, Work: 1000 + next(199000)})
			if l == 0 {
				continue
			}
			for p := 0; p <= int(next(3)); p++ {
				d.Edges = append(d.Edges, edge{From: (l-1)*8 + (i+p*3)%8, To: id, Volume: 64 + next(65472)})
			}
		}
	}
	b, _ := json.Marshal(map[string]any{"platform": "Ivy", "seed": 42, "reps": 51, "refine": 0, "dag": d})
	return string(b)
}
