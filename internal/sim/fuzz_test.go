package sim

import (
	"errors"
	"testing"

	"repro/internal/mctoperr"
)

// FuzzParseGenName drives the `?platform=gen:…` parser with arbitrary
// names. A refusal wraps mctoperr.ErrInvalidRequest; an accepted name is
// its spec's canonical spelling; the context count the daemon's size
// bound reads before anything is generated neither panics nor goes
// negative; and an accepted spec's matrices fit the generator's byte cap. The seed corpus (testdata/fuzz/FuzzParseGenName) is the
// documented names plus malformed neighbours of them, so `go test` runs it
// as plain tests; `go test -fuzz FuzzParseGenName ./internal/sim` explores.
func FuzzParseGenName(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := ParseGenName(name)
		if err != nil {
			if !errors.Is(err, mctoperr.ErrInvalidRequest) {
				t.Fatalf("ParseGenName(%q) = %v, want an ErrInvalidRequest", name, err)
			}
			return
		}
		if got := spec.Name(); got != name {
			t.Fatalf("ParseGenName(%q) accepted a name whose spec spells %q", name, got)
		}
		if n := spec.NumContexts(); n < 0 {
			t.Fatalf("%q: NumContexts() = %d", name, n)
		}
		if b := 8 * (5*spec.Sockets*spec.Sockets + spec.Cores*spec.Cores); b > genMaxMatrixBytes {
			t.Fatalf("%q: accepted with %d bytes of matrices, over the cap %d", name, b, genMaxMatrixBytes)
		}
	})
}
