package mctop

// Golden-fixture harness: the five simulated platforms are inferred at a
// fixed seed and compared byte-for-byte against checked-in description
// files under internal/topo/testdata. The fixtures pin down the whole
// pipeline — simulator noise, parallel measurement, clustering, role
// assignment, plugin enrichment, serialization — so any unintended change
// to inference output shows up as a fixture diff.
//
// Regenerate after an *intended* change with:
//
//	go test -run TestGoldenFixtures -update-golden

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden topology fixtures")

const goldenSeed = 42

func goldenOptions() []Option { return []Option{WithReps(51)} }

func goldenPath(platform string) string {
	return filepath.Join("internal", "topo", "testdata", strings.ToLower(platform)+".mctop")
}

func encodeSpec(t *testing.T, top *Topology) []byte {
	t.Helper()
	var buf bytes.Buffer
	spec := top.Spec()
	if err := topo.Encode(&buf, &spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenFixtures(t *testing.T) {
	for _, name := range Platforms() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			top, err := Infer(context.Background(), name, goldenSeed, goldenOptions()...)
			if err != nil {
				t.Fatal(err)
			}
			got := encodeSpec(t, top)
			path := goldenPath(name)

			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}

			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("inferred %s topology diverges from %s:\n%s",
					name, path, firstDiff(got, want))
			}
		})
	}
}

// TestGoldenRoundTrip asserts Load(Save(x)) == x at the byte level for every
// fixture: decoding a description file and re-encoding it must reproduce the
// file exactly ("created once, then used to load the topology", Section 2).
func TestGoldenRoundTrip(t *testing.T) {
	for _, name := range Platforms() {
		name := name
		t.Run(name, func(t *testing.T) {
			path := goldenPath(name)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update-golden): %v", err)
			}
			top, err := Load(path)
			if err != nil {
				t.Fatalf("fixture does not load: %v", err)
			}
			if !bytes.Equal(encodeSpec(t, top), want) {
				t.Fatal("Load + re-encode does not reproduce the fixture bytes")
			}

			// And through Save: a full file-system round trip.
			out := filepath.Join(t.TempDir(), "rt.mctop")
			if err := Save(out, top); err != nil {
				t.Fatal(err)
			}
			saved, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved, want) {
				t.Fatal("Save does not reproduce the fixture bytes")
			}
		})
	}
}

// TestGoldenStability re-infers one platform twice in-process and across
// parallelism settings: fixtures are only meaningful if inference is a pure
// function of (platform, seed, options).
func TestGoldenStability(t *testing.T) {
	a, err := Infer(context.Background(), "Ivy", goldenSeed, goldenOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(context.Background(), "Ivy", goldenSeed, goldenOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSpec(t, a), encodeSpec(t, b)) {
		t.Fatal("two inferences of the same (platform, seed, options) differ")
	}
	seq := append(goldenOptions(), WithParallelism(1))
	c, err := Infer(context.Background(), "Ivy", goldenSeed, seq...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSpec(t, a), encodeSpec(t, c)) {
		t.Fatal("parallel and sequential inference produce different fixtures")
	}
}

// firstDiff renders the first differing line of two description files.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
