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
//
// The same bytes, read as a DAG of up to 8 nodes whose edges are taken as
// they come (unsorted, repeated, self-looping, out of range), must also
// get the pre-change checks' answers from Validate, TopoOrder and Hash
// (dag_reference_test.go), as must every DAG the decoder accepts.
func FuzzDecodeTaskDAG(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkAgainstReference(t, "raw bytes", dagOfBytes(in))
		d, err := DecodeTaskDAG(bytes.NewReader(in))
		if err != nil {
			return
		}
		checkAgainstReference(t, "decoded", d)
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

// dagOfBytes reads arbitrary bytes as a small DAG, edges in the order the
// bytes give them: the first byte sets 1–8 nodes, the next n their works
// (a byte above 250 is a negative work), then each byte triple an edge —
// endpoints from -1 to 9, so out of range, self-loops and repeats all
// occur, and a volume that is negative above 250.
func dagOfBytes(in []byte) *TaskDAG {
	if len(in) == 0 {
		return &TaskDAG{}
	}
	n := 1 + int(in[0]%8)
	in = in[1:]
	signed := func(b byte) int64 {
		if b > 250 {
			return -int64(b - 250)
		}
		return int64(b)
	}
	d := &TaskDAG{}
	for v := 0; v < n; v++ {
		var w int64
		if v < len(in) {
			w = signed(in[v])
		}
		d.Nodes = append(d.Nodes, TaskNode{ID: v, Work: w})
	}
	for in = in[min(n, len(in)):]; len(in) >= 3; in = in[3:] {
		d.Edges = append(d.Edges, TaskEdge{From: int(in[0]%11) - 1, To: int(in[1]%11) - 1, Volume: signed(in[2])})
	}
	return d
}
