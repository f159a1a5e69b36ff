package faultinject

import "testing"

// FuzzParseFaults drives the `-faults` grammar with arbitrary specs: Parse
// must never panic, and a Set it builds must evaluate every point it names
// without panicking. The seed corpus (testdata/fuzz/FuzzParseFaults) is
// the documented spec examples plus malformed neighbours of them, so
// `go test` runs it as plain tests; `go test -fuzz FuzzParseFaults
// ./internal/faultinject` explores.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(1, spec)
		if err != nil {
			return
		}
		for _, p := range s.Points() {
			s.Eval(p)
		}
	})
}
