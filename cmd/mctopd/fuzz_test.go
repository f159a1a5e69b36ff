package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	mctop "repro"
	"repro/internal/mctoperr"
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
// the 1 MiB limit, an unknown field, a DAG batch and an empty DAG name.
func FuzzMapBody(f *testing.F) {
	goldens := make(map[string]*mctop.Topology)
	for _, p := range mctop.Platforms() {
		t, err := topo.LoadFile("../../internal/topo/testdata/" + strings.ToLower(p) + ".mctop")
		if err != nil {
			f.Fatal(err)
		}
		goldens[strings.ToLower(p)] = t
	}
	golden := mctop.WithInferWrapper(func(mctop.InferCtxFunc) mctop.InferCtxFunc {
		return func(_ context.Context, platform string, seed uint64, opt mctop.Options) (*mctop.Topology, error) {
			t := goldens[strings.ToLower(platform)]
			if t == nil || seed != 42 || opt.Normalized().Reps != 51 || opt.Sampling {
				return nil, fmt.Errorf("%w: this daemon infers only the golden inputs", mctoperr.ErrTooLarge)
			}
			return t, nil
		}
	})

	ok := `{"platform": "Ivy", "seed": 42, "reps": 51, "dag": ` + dagJSON(`"d"`) + "}"
	f.Add([]byte(benchShapedMapBody()))
	f.Add([]byte(ok + "garbage"))
	f.Add([]byte(ok + strings.Repeat(" ", maxBodyBytes+1-len(ok))))
	f.Add([]byte(`{"platform": "Ivy", "seed": 42, "reps": 51, "bogus": 1, "dag": ` + dagJSON(`"d"`) + "}"))
	f.Add([]byte(`{"platform": "Westmere", "seed": 42, "reps": 51, "refine": 20, "dags": [` + dagJSON(`"a"`) + `, ` + dagJSON(`"b"`) + `]}`))
	f.Add([]byte(`{"platform": "Haswell", "seed": 42, "reps": 51, "dag": ` + dagJSON(`""`) + "}\n"))

	f.Fuzz(func(t *testing.T, body []byte) {
		warm := newServerWith(mctop.NewRegistry(16, golden), 51, 0).routes()
		for i := 0; i < 2; i++ {
			serve(warm, http.MethodPost, "/v1/map", string(body))
		}
		got := serve(warm, http.MethodPost, "/v1/map", string(body))
		want := serve(newServerWith(mctop.NewRegistry(16, golden), 51, 0).routes(), http.MethodPost, "/v1/map", string(body))
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
