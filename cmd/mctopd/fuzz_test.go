package main

import (
	"net/http"
	"net/url"
	"testing"
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
