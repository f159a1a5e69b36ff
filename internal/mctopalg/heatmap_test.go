package mctopalg

import (
	"context"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestHeatmapAndCSV(t *testing.T) {
	m, err := machine.NewSim(sim.Ivy(), 2)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Reps: 31}
	res, err := InferContext(context.Background(), m, o)
	if err != nil {
		t.Fatal(err)
	}
	hm := res.Heatmap()
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 41 { // header + 40 rows
		t.Fatalf("heatmap has %d lines", len(lines))
	}
	// The diagonal is '.'; the header names the clusters.
	if !strings.Contains(lines[0], "3 clusters") {
		t.Errorf("header: %s", lines[0])
	}
	row0 := []rune(lines[1])
	if row0[0] != '.' {
		t.Errorf("diagonal = %q", row0[0])
	}
	// Context (0,20) is the SMT cluster (shade 0 = ' '), (0,10) the cross
	// cluster (darkest of the three).
	if row0[20] != ' ' {
		t.Errorf("SMT cell = %q, want ' '", row0[20])
	}
	if row0[10] == ' ' || row0[10] == '.' {
		t.Errorf("cross cell = %q, want a dark shade", row0[10])
	}

	csv := res.CSV()
	rows := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(rows) != 40 {
		t.Fatalf("CSV has %d rows", len(rows))
	}
	if got := len(strings.Split(rows[0], ",")); got != 40 {
		t.Fatalf("CSV row width %d", got)
	}
	if !strings.HasPrefix(rows[0], "0,") {
		t.Errorf("CSV diagonal should start with 0: %s", rows[0][:16])
	}
	// Empty result renders empty.
	if (&Result{}).Heatmap() != "" {
		t.Error("empty result should render empty heatmap")
	}
}
