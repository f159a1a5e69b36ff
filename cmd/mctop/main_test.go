package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	mctop "repro"
)

// TestMainHelper is not a test: run (below) re-executes the test binary
// with `-test.run=^TestMainHelper$ -- args...`, and this turns that process
// into `mctop args...`, exit code included.
func TestMainHelper(t *testing.T) {
	i := slices.Index(os.Args, "--")
	if i < 0 {
		t.Skip("helper process for run()")
	}
	os.Args = append([]string{"mctop"}, os.Args[i+1:]...)
	main()
	os.Exit(0)
}

// run runs `mctop args...` and returns its stdout, stderr and exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelper$", "--"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), exit
}

var ivyFile = filepath.Join("..", "..", "internal", "topo", "testdata", "ivy.mctop")

func loadIvy(t *testing.T) *mctop.Topology {
	t.Helper()
	top, err := mctop.Load(ivyFile)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestPlacePrintsTheAllocReport(t *testing.T) {
	alloc, err := mctop.NewAlloc(loadIvy(t), mctop.RRCore, mctop.WithThreads(16))
	if err != nil {
		t.Fatal(err)
	}
	out, stderr, exit := run(t, "place", "-load", ivyFile, "-policy", "RR_CORE", "-threads", "16")
	if exit != 0 || out != alloc.Report() {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", exit, stderr, out, alloc.Report())
	}
}

func TestPlaceAllPrintsEveryPolicy(t *testing.T) {
	out, stderr, exit := run(t, "place", "-load", ivyFile, "-all")
	if exit != 0 {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	if n := strings.Count(out, "## MCTOP Placement"); n != 12 {
		t.Errorf("-all printed %d reports, want 12:\n%s", n, out)
	}
	for _, name := range mctop.PolicyNames() {
		if !strings.Contains(out, name+"\n") {
			t.Errorf("-all output lacks %s", name)
		}
	}
}

func TestPlaceComposesLikeTheLibrary(t *testing.T) {
	alloc, err := mctop.NewAlloc(loadIvy(t), mctop.OnSockets(mctop.RRCore, 0).Reverse().Limit(8))
	if err != nil {
		t.Fatal(err)
	}
	out, stderr, exit := run(t, "place", "-load", ivyFile, "-policy", "RR_CORE",
		"-on-sockets", "0", "-limit", "8", "-reverse")
	if exit != 0 || out != alloc.Report() {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", exit, stderr, out, alloc.Report())
	}
}

// TestInapplicableFlagsAreUsageErrors: an output flag whose input only an
// inference run produces used to be skipped silently with exit 0.
func TestInapplicableFlagsAreUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args  []string
		names []string // what stderr must name: the flag, the source, the missing input
	}{
		{[]string{"-load", ivyFile, "-validate"}, []string{"-validate", "-load", "OS view"}},
		{[]string{"-load", ivyFile, "-heatmap"}, []string{"-heatmap", "-load", "latency table"}},
		{[]string{"-load", ivyFile, "-csv"}, []string{"-csv", "-load", "latency table"}},
		{[]string{"-host", "-validate"}, []string{"-validate", "-host", "OS view"}},
	} {
		out, stderr, exit := run(t, c.args...)
		if exit != 2 || out != "" {
			t.Errorf("mctop %v: exit %d, stdout %q; want exit 2 and no output", c.args, exit, out)
		}
		for _, name := range c.names {
			if !strings.Contains(stderr, name) {
				t.Errorf("mctop %v: stderr %q does not name %q", c.args, stderr, name)
			}
		}
	}
	if out, stderr, exit := run(t, "-load", ivyFile); exit != 0 || !strings.Contains(out, "loaded "+ivyFile) {
		t.Errorf("plain -load: exit %d, stderr %q, stdout %q", exit, stderr, out)
	}
}

// TestPlaceRefusesSMTTheCoresContradict: a description whose smt line
// disagrees with its cores (SPARC's cores of 8 contexts, declared smt 2)
// used to load, and RR_CORE then placed 64 of the 256 contexts and exited 0.
func TestPlaceRefusesSMTTheCoresContradict(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "topo", "testdata", "sparc.mctop"))
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), "\nsmt 8\n", "\nsmt 2\n", 1)
	if edited == string(data) {
		t.Fatal("sparc.mctop has no smt 8 line")
	}
	file := filepath.Join(t.TempDir(), "sparc-smt2.mctop")
	if err := os.WriteFile(file, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, exit := run(t, "place", "-load", file, "-policy", "RR_CORE")
	if exit == 0 || !strings.Contains(stderr, "smt 2") || !strings.Contains(stderr, "8 contexts") {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant a failure naming smt 2 and cores of 8 contexts", exit, stderr, out)
	}
}
