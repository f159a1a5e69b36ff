package plugins

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// interconnectHopPlugin is a user-written plugin, demonstrating the
// extension point the paper advertises ("developers can write their own
// plugins to further enrich MCTOP"): from the already-inferred socket
// matrix and latency levels it finds the slowest socket pair of the lowest
// cross level.
type interconnectHopPlugin struct {
	worstLowest int64 // written by Run for the test to inspect
}

func (p *interconnectHopPlugin) Name() string { return "interconnect-hops" }

func (p *interconnectHopPlugin) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	i := slices.IndexFunc(t.Levels(), func(l topo.Level) bool { return l.Kind == topo.LevelCross })
	if i < 0 {
		return nil
	}
	lowest := t.Levels()[i]
	for a := 0; a < t.NumSockets(); a++ {
		for b := a + 1; b < t.NumSockets(); b++ {
			if l := t.SocketLatency(a, b); l >= lowest.Min && l <= lowest.Max && l > p.worstLowest {
				p.worstLowest = l
			}
		}
	}
	return nil
}

func TestCustomPluginRuns(t *testing.T) {
	p := sim.Opteron()
	m, base := inferred(t, p, 77)
	custom := &interconnectHopPlugin{}
	if _, err := Enrich(m, base, []Plugin{custom}); err != nil {
		t.Fatal(err)
	}
	// The lowest cross level on the Opteron is the ~197-cycle MCM-sibling
	// links.
	if custom.worstLowest < 190 || custom.worstLowest > 204 {
		t.Errorf("worst lowest-cross-level pair = %d, want ~197", custom.worstLowest)
	}
}

// TestPluginErrorPropagates: a failing custom plugin aborts enrichment
// with a wrapped error.
type failingPlugin struct{}

func (failingPlugin) Name() string { return "failing" }
func (failingPlugin) Run(machine.Machine, *topo.Topology, *topo.Spec) error {
	return errBoom
}

var errBoom = &bootError{}

type bootError struct{}

func (*bootError) Error() string { return "boom" }

func TestPluginErrorPropagates(t *testing.T) {
	p := sim.Ivy()
	m, base := inferred(t, p, 78)
	if _, err := Enrich(m, base, []Plugin{failingPlugin{}}); err == nil {
		t.Fatal("expected enrichment to fail")
	}
}
