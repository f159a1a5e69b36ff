package trace

import "testing"

// FuzzParseTraceparent drives the inbound traceparent parser with arbitrary
// headers. An accepted header must survive a round trip: re-rendered by
// FormatTraceparent, it parses to the same trace ID, span ID and sampled
// flag. The seed corpus (testdata/fuzz/FuzzParseTraceparent) is a valid
// header and malformed neighbours of it, so `go test` runs it as plain
// tests; `go test -fuzz FuzzParseTraceparent ./internal/trace` explores.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, sampled, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		out := FormatTraceparent(tid, sid, sampled)
		tid2, sid2, sampled2, ok2 := ParseTraceparent(out)
		if !ok2 || tid2 != tid || sid2 != sid || sampled2 != sampled {
			t.Fatalf("%q parsed, re-rendered as %q, which parses to (%v, %v, %v, %v)",
				h, out, tid2, sid2, sampled2, ok2)
		}
	})
}
