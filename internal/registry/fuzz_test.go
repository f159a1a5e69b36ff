package registry

import (
	"errors"
	"testing"

	"repro/internal/mctoperr"
	"repro/internal/place"
	"repro/internal/topo"
)

// policyName is a place.Orderer that is nothing but its name, so a parsed
// placement key re-emits through placeKey whatever policy it names —
// ParsePlaceKey accepts names place.Resolve does not know.
type policyName string

func (p policyName) Name() string { return string(p) }

func (policyName) Order(*topo.Topology, place.Options) ([]int, error) { return nil, nil }

// FuzzParseKeys drives the three key parsers an origin runs on
// /v1/export?key= with arbitrary strings. None may panic; every refusal
// wraps mctoperr.ErrInvalidRequest (a 400, never a 404 or a 500); and every
// accepted key re-emits byte for byte from its parsed fields through the
// registry's own emitters, TopoKey, placeKey and mapKey. The seed corpus
// (testdata/fuzz/FuzzParseKeys) is TestTopoKeyBytesPinned's four keys, the
// spool fixtures' #key headers and the former-parameter keys
// TestParseTopoKeyRejectsFormerParameters refuses, so `go test` runs it as
// plain tests; `go test -fuzz FuzzParseKeys ./internal/registry` explores.
func FuzzParseKeys(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string) {
		refused := func(parser string, err error) {
			if !errors.Is(err, mctoperr.ErrInvalidRequest) {
				t.Fatalf("%s(%q) = %v, want an ErrInvalidRequest", parser, key, err)
			}
		}
		if platform, seed, opt, err := ParseTopoKey(key); err != nil {
			refused("ParseTopoKey", err)
		} else if got := TopoKey(platform, seed, opt); got != key {
			t.Fatalf("topology key %q re-emits as %q", key, got)
		}
		if tk, policy, n, err := ParsePlaceKey(key); err != nil {
			refused("ParsePlaceKey", err)
		} else if got := placeKey(tk, policyName(policy), n); got != key {
			t.Fatalf("placement key %q re-emits as %q", key, got)
		}
		if tk, hash, nodes, edges, refine, err := ParseMapKey(key); err != nil {
			refused("ParseMapKey", err)
		} else if got := mapKey(tk, hash, nodes, edges, refine); got != key {
			t.Fatalf("mapping key %q re-emits as %q", key, got)
		}
	})
}
