package mesi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The test machine is small: 2 sockets x 2 cores x 2 SMT = 8 contexts.
// Context numbering is Intel-style: ctx i and i+4 are siblings.
var (
	testCoreOf   = []int32{0, 1, 2, 3, 0, 1, 2, 3}
	testSocketOf = []int32{0, 0, 1, 1, 0, 0, 1, 1}
)

// testCost charges fixed, easily recognizable costs.
type testCost struct{}

func (testCost) HitCost(op Op) int64 {
	if op == Load {
		return 4
	}
	return 12
}
func (testCost) SameCoreTransfer(Op) int64                      { return 28 }
func (testCost) SameSocketTransfer(_ Op, _, _, _ int) int64     { return 112 }
func (testCost) CrossSocketTransfer(_ Op, _, _, _, _ int) int64 { return 308 }
func (testCost) MemoryAccess(_ Op, _ int, _ uint64) int64       { return 250 }
func (testCost) UpgradeCost(_ Op, cross bool) int64 {
	if cross {
		return 200
	}
	return 80
}

func newSys() *System { return New(testCoreOf, testSocketOf, testCost{}) }

func TestColdMiss(t *testing.T) {
	s := newSys()
	if c := s.Access(0, 1, Load); c != 250 {
		t.Errorf("cold load cost = %d, want 250", c)
	}
	st, owner, _ := s.StateOf(1)
	if st != Exclusive || owner != 0 {
		t.Errorf("after cold load: state=%v owner=%d, want E/0", st, owner)
	}
	if c := s.Access(0, 2, Store); c != 250 {
		t.Errorf("cold store cost = %d, want 250", c)
	}
	if st, _, _ := s.StateOf(2); st != Modified {
		t.Errorf("after cold store: state=%v, want M", st)
	}
}

func TestHitAfterOwnAccess(t *testing.T) {
	s := newSys()
	s.Access(0, 1, Store)
	if c := s.Access(0, 1, Load); c != 4 {
		t.Errorf("load hit cost = %d, want 4", c)
	}
	if c := s.Access(0, 1, CAS); c != 12 {
		t.Errorf("CAS hit cost = %d, want 12", c)
	}
}

// TestRFOWalkthrough reproduces Figure 4 of the paper: a line Modified in
// core o's caches; core r issues an RFO. The request misses privately, finds
// the owner, invalidates it, and is granted ownership.
func TestRFOWalkthrough(t *testing.T) {
	s := newSys()
	// Context 1 = core 1 = socket 0 brings the line to M.
	s.Access(1, 7, CAS)
	// Context 0 = core 0 = socket 0: same-socket RFO.
	if c := s.Access(0, 7, CAS); c != 112 {
		t.Errorf("same-socket RFO cost = %d, want 112", c)
	}
	st, owner, _ := s.StateOf(7)
	if st != Modified || owner != 0 {
		t.Errorf("after RFO: state=%v owner=%d, want M/0", st, owner)
	}
	// Context 2 = core 2 = socket 1: cross-socket RFO.
	if c := s.Access(2, 7, CAS); c != 308 {
		t.Errorf("cross-socket RFO cost = %d, want 308", c)
	}
}

// TestSMTSiblingCAS verifies the same-core latency of the lock-step
// measurement: contexts 0 and 4 share core 0.
func TestSMTSiblingCAS(t *testing.T) {
	s := newSys()
	s.Access(0, 9, CAS)
	if c := s.Access(4, 9, CAS); c != 28 {
		t.Errorf("SMT sibling CAS = %d, want 28", c)
	}
	// Ping back.
	if c := s.Access(0, 9, CAS); c != 28 {
		t.Errorf("SMT sibling CAS back = %d, want 28", c)
	}
	// Same context repeating: plain hit.
	if c := s.Access(0, 9, CAS); c != 12 {
		t.Errorf("own repeated CAS = %d, want 12", c)
	}
}

func TestLoadDowngradesToShared(t *testing.T) {
	s := newSys()
	s.Access(0, 3, Store) // core 0 owns M
	if c := s.Access(1, 3, Load); c != 112 {
		t.Errorf("same-socket load from M = %d, want 112", c)
	}
	st, owner, sharers := s.StateOf(3)
	if st != Shared || owner != -1 {
		t.Errorf("state=%v owner=%d, want S/-1", st, owner)
	}
	if len(sharers) != 2 || sharers[0] != 0 || sharers[1] != 1 {
		t.Errorf("sharers = %v, want [0 1]", sharers)
	}
	// Both sharers now hit locally.
	if c := s.Access(0, 3, Load); c != 4 {
		t.Errorf("sharer 0 load = %d, want 4", c)
	}
	if c := s.Access(1, 3, Load); c != 4 {
		t.Errorf("sharer 1 load = %d, want 4", c)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	s := newSys()
	s.Access(0, 3, Store)
	s.Access(1, 3, Load) // S in cores 0,1 (socket 0)
	// Core 1 holds a copy: pure upgrade, local sharers only.
	if c := s.Access(1, 3, Store); c != 80 {
		t.Errorf("local upgrade cost = %d, want 80", c)
	}
	st, owner, _ := s.StateOf(3)
	if st != Modified || owner != 1 {
		t.Errorf("after upgrade: %v/%d, want M/1", st, owner)
	}
}

func TestUpgradeCrossSocket(t *testing.T) {
	s := newSys()
	s.Access(0, 3, Store)
	s.Access(2, 3, Load) // S in core 0 (socket 0) and core 2 (socket 1)
	// Core 0 upgrades; a sharer is remote.
	if c := s.Access(0, 3, Store); c != 200 {
		t.Errorf("cross-socket upgrade cost = %d, want 200", c)
	}
}

func TestStoreToSharedWithoutCopy(t *testing.T) {
	s := newSys()
	s.Access(0, 3, Store)
	s.Access(1, 3, Load) // S in cores 0,1
	// Core 3 (socket 1) stores without holding a copy: upgrade + data.
	c := s.Access(3, 3, Store)
	if c <= 200 {
		t.Errorf("remote store to S = %d, want > 200 (upgrade + data)", c)
	}
	st, owner, _ := s.StateOf(3)
	if st != Modified || owner != 3 {
		t.Errorf("after store: %v/%d, want M/3", st, owner)
	}
}

// TestDeterminism: the same access sequence always produces the same costs.
func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := newSys()
		rng := rand.New(rand.NewSource(42))
		var costs []int64
		for i := 0; i < 2000; i++ {
			ctx := rng.Intn(8)
			addr := uint64(rng.Intn(16))
			op := Op(rng.Intn(3))
			costs = append(costs, s.Access(ctx, addr, op))
		}
		return costs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d: cost %d != %d", i, a[i], b[i])
		}
	}
}

// TestLockStepDeterminism: the paper's key observation — in the absence of
// contention, ping-ponging a line between two fixed contexts settles into a
// constant per-access cost.
func TestLockStepDeterminism(t *testing.T) {
	s := newSys()
	pairs := [][2]int{{0, 4}, {0, 1}, {0, 2}, {1, 3}}
	want := []int64{28, 112, 308, 308}
	for k, p := range pairs {
		s.Invalidate(5)
		s.Access(p[0], 5, CAS) // warm
		for i := 0; i < 10; i++ {
			who := p[i%2]
			c := s.Access(who, 5, CAS)
			if i > 0 && c != want[k] {
				t.Errorf("pair %v iter %d: cost %d, want %d", p, i, c, want[k])
			}
		}
	}
}

// Property test: invariants hold under arbitrary access sequences.
func TestInvariantsUnderRandomAccess(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		s := newSys()
		rng := rand.New(rand.NewSource(seed))
		steps := int(n%1000) + 1
		for i := 0; i < steps; i++ {
			ctx := rng.Intn(8)
			addr := uint64(rng.Intn(8))
			op := Op(rng.Intn(3))
			c := s.Access(ctx, addr, op)
			if c <= 0 {
				return false
			}
			if rng.Intn(50) == 0 {
				s.Invalidate(uint64(rng.Intn(8)))
			}
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: after any Store/CAS the line is Modified and owned by the
// storing context.
func TestStoreAlwaysTakesOwnership(t *testing.T) {
	f := func(seed int64) bool {
		s := newSys()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			ctx := rng.Intn(8)
			addr := uint64(rng.Intn(4))
			s.Access(ctx, addr, Op(rng.Intn(3)))
		}
		ctx := rng.Intn(8)
		s.Access(ctx, 2, Store)
		st, owner, _ := s.StateOf(2)
		return st == Modified && owner == ctx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResetAndStats(t *testing.T) {
	s := newSys()
	s.Access(0, 1, Load)
	s.Access(1, 1, Load)
	s.Access(1, 1, Load)
	if s.Misses != 1 || s.Transfers != 1 || s.Hits != 1 {
		t.Errorf("stats = misses %d transfers %d hits %d, want 1/1/1", s.Misses, s.Transfers, s.Hits)
	}
	s.Reset()
	if s.Misses != 0 || s.Hits != 0 || s.Transfers != 0 || s.MemAccesses != 0 {
		t.Error("Reset did not clear statistics")
	}
	if st, _, _ := s.StateOf(1); st != Invalid {
		t.Error("Reset did not invalidate lines")
	}
	// The line just accessed is the memoized one: Reset must drop it too.
	if c := s.Access(1, 1, Load); c != 250 {
		t.Errorf("access after Reset cost %d, want a cold miss (250)", c)
	}
}

// TestInvalidateForgetsLine: Invalidate must also drop the line from the
// one-entry lookup memo, or the next access would hit a line the engine no
// longer tracks.
func TestInvalidateForgetsLine(t *testing.T) {
	s := newSys()
	s.Access(0, 7, CAS)
	s.Invalidate(7)
	if c := s.Access(0, 7, CAS); c != 250 {
		t.Errorf("access after Invalidate cost %d, want a cold miss (250)", c)
	}
	if st, owner, _ := s.StateOf(7); st != Modified || owner != 0 {
		t.Errorf("re-fetched line is %v owned by %d, want M owned by 0", st, owner)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAccessPanicsOnBadContext(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range context")
		}
	}()
	newSys().Access(99, 0, Load)
}

func TestStateStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("State strings wrong")
	}
	if Load.String() != "Load" || Store.String() != "Store" || CAS.String() != "CAS" {
		t.Error("Op strings wrong")
	}
}
