package mctop

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

func TestPlatformsList(t *testing.T) {
	ps := Platforms()
	want := []string{"Ivy", "Westmere", "Haswell", "Opteron", "SPARC"}
	if len(ps) != len(want) {
		t.Fatalf("platforms = %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("platform %d = %s, want %s", i, ps[i], want[i])
		}
	}
}

func TestEndToEndIvy(t *testing.T) {
	top, res, err := InferDetailed(context.Background(), "Ivy", 5, WithReps(51))
	if err != nil {
		t.Fatal(err)
	}
	if top.NumHWContexts() != 40 || top.NumSockets() != 2 {
		t.Fatal("wrong dims")
	}
	if len(res.Clusters) != 3 {
		t.Errorf("clusters = %v", res.Clusters)
	}
	// The query API of Section 2.
	if n := top.GetLocalNode(0); n == nil || n.ID != 0 {
		t.Error("GetLocalNode broken")
	}
	if lat := top.GetLatency(0, 20); lat < 26 || lat > 30 {
		t.Errorf("GetLatency(0,20) = %d", lat)
	}
	cores := top.SocketGetCores(top.Socket(0))
	if len(cores) != 10 {
		t.Errorf("socket 0 cores = %d", len(cores))
	}
	// Placement facade.
	alloc, err := NewAlloc(top, ConHWC, WithThreads(30))
	if err != nil {
		t.Fatal(err)
	}
	if alloc.NumCores() != 15 {
		t.Errorf("Figure 7 cores = %d, want 15", alloc.NumCores())
	}
	report := alloc.Report()
	if !strings.Contains(report, "MCTOP_PLACE_CON_HWC") {
		t.Error("placement report missing policy name")
	}
	// Save/Load round trip.
	path := filepath.Join(t.TempDir(), "ivy.mct")
	if err := Save(path, top); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.GetLatency(0, 20) != top.GetLatency(0, 20) {
		t.Error("round trip changed latencies")
	}
}

func TestPlaceErrors(t *testing.T) {
	if _, err := ResolvePolicy("NO_SUCH_POLICY"); err == nil {
		t.Error("unknown policy should fail")
	}
	if len(PolicyNames()) != 12 {
		t.Errorf("policies = %v", PolicyNames())
	}
}

func TestInferUnknownPlatform(t *testing.T) {
	if _, err := Infer(context.Background(), "VAX", 1); err == nil {
		t.Error("unknown platform should fail")
	}
}

func TestValidateFacade(t *testing.T) {
	top, err := Infer(context.Background(), "Ivy", 7)
	if err != nil {
		t.Fatal(err)
	}
	coreOf := make([]int, 40)
	sockOf := make([]int, 40)
	for c := 0; c < 40; c++ {
		coreOf[c] = c % 20
		sockOf[c] = (c % 20) / 10
	}
	if diffs := Validate(top, coreOf, sockOf, []int{0, 1}); len(diffs) != 0 {
		t.Errorf("unexpected divergences: %v", diffs)
	}
	if diffs := Validate(top, coreOf, sockOf, []int{1, 0}); len(diffs) == 0 {
		t.Error("wrong node map should diverge")
	}
}
