package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestFiguresGolden pins every model-derived paper number: the complete
// `mctop-bench figures` output must equal the committed golden byte for
// byte. After an intended change, regenerate it with
//
//	go run ./cmd/mctop-bench figures > cmd/mctop-bench/testdata/figures.golden.md
//
// and review the diff.
func TestFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures.golden.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := figures(&got, ""); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<missing>"
	}
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		if g, w := line(gotLines, i), line(wantLines, i); g != w {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
