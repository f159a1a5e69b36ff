package place

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/mctoperr"
	"repro/internal/topo"
)

// loadPlatform pulls a golden topology fixture (shared with the topo
// package's tests) so policy tests run on realistic machines without
// paying for an inference.
func loadPlatform(t *testing.T, name string) *topo.Topology {
	t.Helper()
	top, err := topo.LoadFile("../topo/testdata/" + strings.ToLower(name) + ".mctop")
	if err != nil {
		t.Fatalf("loading %s fixture: %v", name, err)
	}
	return top
}

func TestBuiltinOrderMatchesNew(t *testing.T) {
	top := loadPlatform(t, "Ivy")
	for _, pol := range Policies() {
		order, err := pol.Order(top, Options{NThreads: 10})
		if err != nil {
			t.Fatalf("%v.Order: %v", pol, err)
		}
		pl, err := NewFrom(top, pol, Options{NThreads: 10})
		if err != nil {
			t.Fatalf("NewFrom(%v): %v", pol, err)
		}
		ctxs := pl.Contexts()
		if len(order) != len(ctxs) {
			t.Fatalf("%v: Order has %d slots, New has %d", pol, len(order), len(ctxs))
		}
		for i := range order {
			if order[i] != ctxs[i] {
				t.Fatalf("%v slot %d: Order %d, New %d", pol, i, order[i], ctxs[i])
			}
		}
		if pl.Policy() != pol {
			t.Errorf("%v: Policy() = %v", pol, pl.Policy())
		}
		if pl.PolicyName() != pol.String() {
			t.Errorf("%v: PolicyName() = %q", pol, pl.PolicyName())
		}
	}
}

func TestOnSocketsFiltersAndPreservesOrder(t *testing.T) {
	top := loadPlatform(t, "Ivy")
	full, err := RRCore.Order(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := OnSockets(RRCore, 1).Order(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("empty filtered order")
	}
	// Every context is on socket 1, and the relative order matches the
	// base policy's full order.
	want := full[:0:0]
	for _, c := range full {
		if top.Context(c).Socket.ID == 1 {
			want = append(want, c)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d contexts, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

func TestChainOnSocketsLimit(t *testing.T) {
	top := loadPlatform(t, "Ivy")
	chain := OnSockets(RRCore, 0).Limit(8)
	wantName := "MCTOP_PLACE_RR_CORE.ON_SOCKETS(0).LIMIT(8)"
	if chain.Name() != wantName {
		t.Errorf("Name() = %q, want %q", chain.Name(), wantName)
	}
	pl, err := NewFrom(top, chain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.NThreads() != 8 {
		t.Fatalf("NThreads = %d, want 8", pl.NThreads())
	}
	for _, c := range pl.Contexts() {
		if s := top.Context(c).Socket.ID; s != 0 {
			t.Fatalf("context %d is on socket %d, want 0", c, s)
		}
	}
	if pl.Policy() != Custom {
		t.Errorf("Policy() = %v, want Custom", pl.Policy())
	}
	if pl.PolicyName() != wantName {
		t.Errorf("PolicyName() = %q", pl.PolicyName())
	}
}

func TestReverseInvertsFullOrder(t *testing.T) {
	top := loadPlatform(t, "Ivy")
	full, err := ConHWC.Order(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Reverse(ConHWC).Order(top, Options{NThreads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rev) != 3 {
		t.Fatalf("len = %d, want 3", len(rev))
	}
	// The reversed order starts from the contexts the base policy would
	// use last.
	for i := 0; i < 3; i++ {
		if want := full[len(full)-1-i]; rev[i] != want {
			t.Fatalf("slot %d: got %d, want %d", i, rev[i], want)
		}
	}
}

func TestCombinatorErrors(t *testing.T) {
	top := loadPlatform(t, "Ivy")
	cases := []struct {
		name string
		o    Orderer
	}{
		{"socket out of range", OnSockets(RRCore, 99)},
		{"negative socket", OnSockets(RRCore, -1)},
		{"no sockets", OnSockets(RRCore)},
		{"negative limit", Limit(RRCore, -2)},
	}
	for _, tc := range cases {
		if _, err := tc.o.Order(top, Options{}); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, err)
		} else if !errors.Is(err, mctoperr.ErrInvalidRequest) {
			t.Errorf("%s: err = %v does not wrap mctoperr.ErrInvalidRequest", tc.name, err)
		}
	}
}

// evenCtxs is a from-scratch Orderer implementation: every even-numbered
// context, ascending.
type evenCtxs struct{}

func (evenCtxs) Name() string { return "EVEN_CTXS" }
func (evenCtxs) Order(t *topo.Topology, opt Options) ([]int, error) {
	var out []int
	for c := 0; c < t.NumHWContexts(); c += 2 {
		out = append(out, c)
	}
	if opt.NThreads > 0 && opt.NThreads < len(out) {
		out = out[:opt.NThreads]
	}
	return out, nil
}

// TestNewFromUserOrderer: an application's own Orderer places by value,
// answers Policy() with Custom and keeps its Name.
func TestNewFromUserOrderer(t *testing.T) {
	top := loadPlatform(t, "Ivy")
	pl, err := NewFrom(top, evenCtxs{}, Options{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl.Contexts(), []int{0, 2, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("contexts %v, want %v", got, want)
	}
	if pl.Policy() != Custom || pl.PolicyName() != "EVEN_CTXS" {
		t.Errorf("Policy() = %v, PolicyName() = %q, want Custom and EVEN_CTXS", pl.Policy(), pl.PolicyName())
	}
	if _, err := Resolve("EVEN_CTXS"); !errors.Is(err, mctoperr.ErrUnknownPolicy) {
		t.Errorf("Resolve(EVEN_CTXS) = %v, want ErrUnknownPolicy: only builtins have names", err)
	}
}

func TestResolveUnknownWrapsSentinels(t *testing.T) {
	_, err := Resolve("NOT_A_POLICY")
	if !errors.Is(err, ErrInvalid) {
		t.Errorf("err = %v, want ErrInvalid", err)
	}
	if !errors.Is(err, mctoperr.ErrUnknownPolicy) {
		t.Errorf("err = %v, want mctoperr.ErrUnknownPolicy", err)
	}
}

func TestNewFromRejectsOutOfRangeSlots(t *testing.T) {
	top := loadPlatform(t, "Ivy")
	bad := badOrderer{}
	if _, err := NewFrom(top, bad, Options{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("err = %v, want ErrInvalid", err)
	}
	if _, err := NewFrom(top, nil, Options{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("nil policy err = %v, want ErrInvalid", err)
	}
}

type badOrderer struct{}

func (badOrderer) Name() string { return "BAD" }
func (badOrderer) Order(t *topo.Topology, opt Options) ([]int, error) {
	return []int{0, t.NumHWContexts() + 5}, nil
}
