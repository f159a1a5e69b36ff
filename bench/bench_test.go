package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads and the ledger pass at -scale smoke (one
// round each) and checks the benchmark against its own dictionary and
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	r, err := run(options{seed: 1, ledger: true, sc: scales["smoke"], spansPath: spans})
	if err != nil {
		t.Fatal(err)
	}

	// BENCHMARK.json is the dictionary, rendered.
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from `go run -C bench . manifest`")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	if len(doc.Workloads) != 4 || len(doc.EndToEnd) != 5 || len(doc.PerLayer) != 92 {
		t.Errorf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; want 4, 5, 92",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer))
	}

	// Every workload emits exactly the metrics that list it, and no op failed.
	if len(r.Workloads) != len(doc.Workloads) {
		t.Fatalf("%d workloads ran, want %d", len(r.Workloads), len(doc.Workloads))
	}
	for i, res := range r.Workloads {
		if res.Name != doc.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, res.Name, doc.Workloads[i].Name)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", res.Name, res.Failed, res.Attempted)
		}
		defs := metricsOf(res.Name)
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s reports %d metrics, the dictionary lists %d", res.Name, len(res.Metrics), len(defs))
		}
		for j, m := range res.Metrics {
			if m.Name != defs[j].Name {
				t.Errorf("%s metric %d is %s, want %s", res.Name, j, m.Name, defs[j].Name)
			}
			// Comparing a result with itself is all `within`.
			if _, v := verdict(m, m); v != "within" {
				t.Errorf("%s %s compared with itself: %s", res.Name, m.Name, v)
			}
		}
		var line struct {
			Correct bool
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(r.driverLine(res.Name, false, true)), &line); err != nil {
			t.Fatal(err)
		}
		for _, m := range doc.EndToEnd {
			if line.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("%s --trace 0 line lacks %s in %s", res.Name, m.Name, m.Unit)
			}
		}
		if len(line.Metrics) != len(doc.EndToEnd) {
			t.Errorf("%s --trace 0 line has %d metrics, want %d", res.Name, len(line.Metrics), len(doc.EndToEnd))
		}
	}
	if len(r.PerLayer) != len(doc.PerLayer) {
		t.Fatalf("ledger pass reports %d metrics, BENCHMARK.json lists %d", len(r.PerLayer), len(doc.PerLayer))
	}
	for i, v := range r.PerLayer {
		if v.Name != doc.PerLayer[i].Name || v.Unit != doc.PerLayer[i].Unit {
			t.Errorf("per-layer metric %d is %s (%s), want %s (%s)", i, v.Name, v.Unit, doc.PerLayer[i].Name, doc.PerLayer[i].Unit)
		}
	}
	if c := compare(os.Stdout, r, r); c != 0 {
		t.Errorf("compare of a result with itself exits %d", c)
	}

	// The span file holds the client spans and the ladder's.
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Summary []spanSummary
		Spans   []span
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, s := range file.Summary {
		have[s.Name] = true
	}
	for _, want := range []string{"client.request", "client.roundtrip", "client.read_body", "client.verify",
		"mctop.infer", "sim.new", "mctopalg.infer", "plugins.enrich", "topo.encode", "registry.lookup[spool]", "registry.lookup[remote]"} {
		if !have[want] {
			t.Errorf("span file has no %s span", want)
		}
	}
}

func TestGeneratedDAGs(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		for _, d := range genDAGs(newRNG(seed, "test"), 8) {
			if len(d.Nodes) != 48 {
				t.Fatalf("seed %d %s: %d nodes", seed, d.Name, len(d.Nodes))
			}
			seen := map[[2]int]bool{}
			for i, e := range d.Edges {
				if e.From >= e.To || e.To >= len(d.Nodes) || seen[[2]int{e.From, e.To}] {
					t.Fatalf("seed %d %s: edge %d (%d->%d) is backward, out of range or repeated", seed, d.Name, i, e.From, e.To)
				}
				seen[[2]int{e.From, e.To}] = true
			}
		}
	}
}

func TestPercentileAndNormalise(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p50, p95 := percentile(xs, 50), percentile(xs, 95); p50 != 5 || p95 != 10 {
		t.Errorf("p50 %v p95 %v of 1..10, want 5 and 10", p50, p95)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %v, want 2.5", m)
	}
	// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]
	if s := spread(xs); s != 1 {
		t.Errorf("spread %v of 1..10, want (8.25-2.75)/5.5", s)
	}
	body := "{\n  \"platform\": \"Ivy\",\n  \"cached\": true,\n  \"served_in\": \"1.2ms\"\n}\n"
	if got := string(normalise(nil, []byte(body))); got != "{\n  \"platform\": \"Ivy\",\n}\n" {
		t.Errorf("normalise: %q", got)
	}
}
