package place_test

// Table-driven coverage of the full policy matrix: all 12 placement
// policies of Table 2 x the five simulated platforms, asserting the
// invariants every placement must satisfy — the requested thread count is
// honored, no hardware context is assigned twice, contexts are valid, and
// each policy family's ordering property holds (compact policies fill a
// socket before opening the next, balanced/round-robin policies spread
// evenly, core-first policies use unique cores before SMT siblings).

import (
	"context"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/topo"
)

var (
	matrixMu    sync.Mutex
	matrixTopos = map[string]*topo.Topology{}
)

// matrixTopo infers each platform once and shares it across the matrix.
func matrixTopo(t *testing.T, name string) *topo.Topology {
	t.Helper()
	matrixMu.Lock()
	defer matrixMu.Unlock()
	if top, ok := matrixTopos[name]; ok {
		return top
	}
	p, err := sim.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.NewSim(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mctopalg.InferContext(context.Background(), m, mctopalg.Options{Reps: 51})
	if err != nil {
		t.Fatal(err)
	}
	top, err := plugins.Enrich(m, res.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	matrixTopos[name] = top
	return top
}

// checkInvariants verifies the policy-independent contract of a placement.
func checkInvariants(t *testing.T, top *topo.Topology, pol place.Policy, pl *place.Placement, requested int) {
	t.Helper()
	ctxs := pl.Contexts()

	if requested > 0 && pol != place.RRScale && len(ctxs) != requested {
		t.Errorf("requested %d threads, placement has %d", requested, len(ctxs))
	}
	if requested > 0 && len(ctxs) > requested {
		t.Errorf("placement overshoots: %d slots for %d requested threads", len(ctxs), requested)
	}

	seen := map[int]bool{}
	for i, c := range ctxs {
		if pol == place.None {
			if c != -1 {
				t.Fatalf("None must leave threads unpinned, slot %d = %d", i, c)
			}
			continue
		}
		if c < 0 || c >= top.NumHWContexts() {
			t.Fatalf("slot %d assigns invalid context %d", i, c)
		}
		if seen[c] {
			t.Fatalf("context %d assigned twice", c)
		}
		seen[c] = true
	}
}

// checkOrdering verifies each policy family's characteristic property over a
// full placement (every context the policy allows).
func checkOrdering(t *testing.T, top *topo.Topology, pol place.Policy, pl *place.Placement) {
	t.Helper()
	ctxs := pl.Contexts()

	switch pol {
	case place.Sequential:
		for i, c := range ctxs {
			if c != i {
				t.Fatalf("Sequential slot %d = %d", i, c)
			}
		}

	case place.ConHWC, place.ConCoreHWC:
		// Compact: once a socket is left, it never reappears.
		seenSockets := map[int]bool{}
		last := -1
		for _, c := range ctxs {
			s := top.Context(c).Socket.ID
			if s != last {
				if seenSockets[s] {
					t.Fatalf("%v returns to socket %d after leaving it", pol, s)
				}
				seenSockets[s] = true
				last = s
			}
		}
		if pol == place.ConHWC && top.HasSMT() {
			// Both SMT contexts of a core are placed back to back.
			for i := 0; i+1 < len(ctxs); i += top.SMTWays() {
				core := top.Context(ctxs[i]).Core
				for j := 1; j < top.SMTWays(); j++ {
					if top.Context(ctxs[i+j]).Core != core {
						t.Fatalf("ConHWC splits core at slot %d", i)
					}
				}
			}
		}

	case place.ConCore:
		// All unique cores of the allowed sockets come before any SMT
		// sibling reuse.
		nCores := top.NumCores()
		seenCores := map[*topo.HWCGroup]bool{}
		for i, c := range ctxs {
			core := top.Context(c).Core
			if i < nCores {
				if seenCores[core] {
					t.Fatalf("ConCore reuses a core at slot %d before all %d cores are used", i, nCores)
				}
				seenCores[core] = true
			}
		}

	case place.BalanceHWC, place.BalanceCoreHWC, place.BalanceCore, place.RRCore, place.RRHWC:
		// Spread: socket occupancies stay within one thread of each other
		// at every prefix length (round-robin interleaving).
		counts := map[int]int{}
		for i, c := range ctxs {
			counts[top.Context(c).Socket.ID]++
			if i+1 >= top.NumSockets() { // once every socket had its turn
				min, max := 1<<30, 0
				for _, n := range counts {
					if n < min {
						min = n
					}
					if n > max {
						max = n
					}
				}
				if len(counts) == top.NumSockets() && max-min > 1 {
					t.Fatalf("%v imbalanced after %d threads: per-socket counts %v", pol, i+1, counts)
				}
			}
		}

	case place.RRScale:
		// Capped at the contexts needed to saturate each socket's local
		// memory bandwidth; never more than one context per core before
		// the cap is known, and never more slots than contexts.
		if len(ctxs) > top.NumHWContexts() {
			t.Fatalf("RRScale placed %d threads on %d contexts", len(ctxs), top.NumHWContexts())
		}

	case place.PowerPolicy, place.None:
		// PowerPolicy's ordering is model-driven (checked by its own test
		// file); None has no ordering.
	}
}

func TestPolicyMatrix(t *testing.T) {
	platforms := []string{"Ivy", "Westmere", "Haswell", "Opteron", "SPARC"}
	for _, platform := range platforms {
		platform := platform
		t.Run(platform, func(t *testing.T) {
			top := matrixTopo(t, platform)
			for _, pol := range place.Policies() {
				pol := pol
				t.Run(pol.String(), func(t *testing.T) {
					if pol == place.PowerPolicy && !top.Power().Available() {
						// Power placement is Intel-only in the paper; the
						// policy must refuse, not misbehave.
						if _, err := place.NewFrom(top, pol, place.Options{}); err == nil {
							t.Fatal("PowerPolicy succeeded without power measurements")
						}
						return
					}

					// Full placement: every context the policy allows.
					full, err := place.NewFrom(top, pol, place.Options{})
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, top, pol, full, 0)
					checkOrdering(t, top, pol, full)
					if pol != place.None && pol != place.RRScale && full.NThreads() != top.NumHWContexts() {
						t.Errorf("full %v uses %d of %d contexts", pol, full.NThreads(), top.NumHWContexts())
					}

					// Partial placement: a thread count below one socket.
					partial, err := place.NewFrom(top, pol, place.Options{NThreads: 5})
					if err != nil {
						t.Fatal(err)
					}
					checkInvariants(t, top, pol, partial, 5)
				})
			}
		})
	}
}
