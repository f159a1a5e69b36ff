package main

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// summary is what `mctop -load path` prints after its "loaded" line: the
// topology's textual summary.
func summary(t *testing.T, path string) string {
	t.Helper()
	out, stderr, exit := run(t, "-load", path)
	if exit != 0 {
		t.Fatalf("-load %s: exit %d, stderr %q", path, exit, stderr)
	}
	_, rest, ok := strings.Cut(out, "\n")
	if !ok || !strings.HasPrefix(out, "loaded "+path) {
		t.Fatalf("-load %s printed %q", path, out)
	}
	return rest
}

// keyLine returns the key of a description file's #key header.
func keyLine(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	key, ok := strings.CutPrefix(strings.TrimSuffix(line, "\n"), "#key ")
	if err != nil || !ok {
		t.Fatalf("%s starts with %q, not a #key line", path, line)
	}
	return key
}

// TestExportImportLoad: export infers Ivy at reps 51 into a #key-headed
// file; import installs it into a fresh spool under that key; and -load
// of the exported file, of the spooled file and of the golden fixture all
// print the same summary.
func TestExportImportLoad(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "ivy.mctop")
	out, stderr, exit := run(t, "export", "-platform", "Ivy", "-seed", "42", "-reps", "51", "-o", file)
	if want := "exported Ivy (seed 42, inferred) to " + file + "\n"; exit != 0 || out != want {
		t.Fatalf("export: exit %d, stderr %q, stdout %q, want %q", exit, stderr, out, want)
	}
	key := keyLine(t, file)
	if !strings.HasPrefix(key, "topo|Ivy|42|r51,") {
		t.Fatalf("exported key %q, want Ivy's at seed 42 and reps 51", key)
	}

	spoolDir := filepath.Join(dir, "spool")
	out, stderr, exit = run(t, "import", "-spool", spoolDir, file)
	if want := "imported " + file + " as \"" + key + "\"\n"; exit != 0 || out != want {
		t.Fatalf("import: exit %d, stderr %q, stdout %q, want %q", exit, stderr, out, want)
	}
	spooled, err := filepath.Glob(filepath.Join(spoolDir, "topo_Ivy_42_r51_*.mctop"))
	if err != nil || len(spooled) != 1 {
		t.Fatalf("spool holds %v (%v), want one Ivy topology", spooled, err)
	}
	if got := keyLine(t, spooled[0]); got != key {
		t.Errorf("spooled file's key %q, exported %q", got, key)
	}

	want := summary(t, file)
	for _, path := range []string{spooled[0], ivyFile} {
		if got := summary(t, path); got != want {
			t.Errorf("-load %s prints\n%s\nwant, as for the exported file,\n%s", path, got, want)
		}
	}
}

// TestFetch: fetch asks an origin's /v1/export for the key its flags name,
// writes the body byte for byte and installs it into a spool; an origin
// that does not hold the key makes it exit non-zero with the status on
// stderr.
func TestFetch(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "internal", "spool", "testdata", "topo_Ivy_42_r51_*.mctop"))
	if err != nil || len(fixtures) != 1 {
		t.Fatalf("spool fixtures %v (%v), want one Ivy topology", fixtures, err)
	}
	fixture, err := os.ReadFile(fixtures[0])
	if err != nil {
		t.Fatal(err)
	}
	key := keyLine(t, fixtures[0])
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/export" || r.URL.Query().Get("key") != key {
			http.Error(w, "no such key", http.StatusNotFound)
			return
		}
		w.Write(fixture)
	}))
	defer origin.Close()

	dir := t.TempDir()
	file := filepath.Join(dir, "ivy.mctop")
	spoolDir := filepath.Join(dir, "spool")
	_, stderr, exit := run(t, "fetch", "-origin", origin.URL, "-platform", "Ivy", "-seed", "42", "-reps", "51", "-o", file, "-spool", spoolDir)
	if exit != 0 || !strings.Contains(stderr, "installed into spool "+spoolDir) {
		t.Fatalf("fetch: exit %d, stderr %q", exit, stderr)
	}
	if got, err := os.ReadFile(file); err != nil || !bytes.Equal(got, fixture) {
		t.Errorf("fetched file (%v) differs from what the origin served", err)
	}
	if got, err := os.ReadFile(filepath.Join(spoolDir, filepath.Base(fixtures[0]))); err != nil || !bytes.Equal(got, fixture) {
		t.Errorf("spooled file (%v) differs from what the origin served", err)
	}

	_, stderr, exit = run(t, "fetch", "-origin", origin.URL, "-platform", "Ivy", "-seed", "43", "-reps", "51", "-o", filepath.Join(dir, "missing.mctop"))
	if exit == 0 || !strings.Contains(stderr, "404 Not Found") || !strings.Contains(stderr, "no such key") {
		t.Errorf("fetch of a key the origin lacks: exit %d, stderr %q, want non-zero and the 404", exit, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "missing.mctop")); !os.IsNotExist(err) {
		t.Errorf("a refused fetch wrote its output file (%v)", err)
	}
}

// TestMapLocal maps a four-task diamond onto Ivy (seed 42, reps 51) in
// process and prints the assignment: the two heavy middle tasks run in
// parallel, on context 0 and its SMT sibling 20, the closest pair there is,
// and the join runs on 20.
func TestMapLocal(t *testing.T) {
	dag := filepath.Join(t.TempDir(), "diamond.ndjson")
	if err := os.WriteFile(dag, []byte(`{"dag":"diamond"}
{"node":0,"work":1000}
{"node":1,"work":400000}
{"node":2,"work":400000}
{"node":3,"work":1000}
{"edge":[0,1],"volume":64}
{"edge":[0,2],"volume":64}
{"edge":[1,3],"volume":64}
{"edge":[2,3],"volume":64}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, exit := run(t, "map", "-platform", "Ivy", "-seed", "42", "-reps", "51", dag)
	want := `diamond: 4 tasks, 4 edges on Ivy (seed 42): greedy+refine, estimated 402028 cycles
  task 0 -> hwc 0
  task 1 -> hwc 0
  task 2 -> hwc 20
  task 3 -> hwc 20
`
	if exit != 0 || out != want {
		t.Errorf("map: exit %d, stderr %q, stdout:\n%s\nwant:\n%s", exit, stderr, out, want)
	}
}
