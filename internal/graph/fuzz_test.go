package graph

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeTaskDAG drives the NDJSON task-DAG decoder `mctop map` reads
// with arbitrary bytes. It may refuse anything but must never panic, and
// whatever it accepts must survive a round trip: encoding the DAG and
// decoding the result gives an equal DAG, and encoding that one again gives
// the same bytes. The seed corpus (testdata/fuzz/FuzzDecodeTaskDAG) holds a
// valid DAG, one with comments and blank lines, a cycle, a dangling edge, a
// line over the scanner's initial 64 KiB buffer, an edge without a volume
// and a name that smuggles in a mapping file's lines, so `go test` runs it as plain tests; `go test -fuzz
// FuzzDecodeTaskDAG ./internal/graph` explores.
func FuzzDecodeTaskDAG(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := DecodeTaskDAG(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := EncodeTaskDAG(&first, d); err != nil {
			t.Fatalf("encoding an accepted DAG: %v", err)
		}
		again, err := DecodeTaskDAG(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding its own encoding: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("round trip changed the DAG:\n%+v\n%+v", d, again)
		}
		var second bytes.Buffer
		if err := EncodeTaskDAG(&second, again); err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("second encoding differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
