// The coherence checks a CAS can reach, run against the simulator's
// line-holder model (sim.Thread.CAS, the only coherence operation
// MCTOP-ALG issues). They were written for a four-state MESI engine that
// this model replaced, and every one still holds. A CAS costs what it
// takes to get the line from its holder: nobody (the home node's memory
// latency, home = line % nodes), the same context (HitCASLat), or another
// context (PairLatency(requester, holder)).
package sim_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// quietPlatform is noise-free with DVFS off, so a thread's clock advances
// by exactly the charged cost. Its sockets sit on a ring, so one- and
// two-hop transfers cost different amounts.
func quietPlatform(t *testing.T) *sim.Platform {
	t.Helper()
	p, err := sim.ByName("gen:ring:s4:c2:t2:v7")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newSim(t *testing.T, p *sim.Platform, seed uint64) *sim.Sim {
	t.Helper()
	s, err := sim.New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newThread(t *testing.T, s *sim.Sim, ctx int) *sim.Thread {
	t.Helper()
	th, err := s.NewThread(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// cas runs one CAS and returns the cycles it took.
func cas(th *sim.Thread, line uint64) int64 {
	before := th.Now()
	th.CAS(line)
	return th.Now() - before
}

func TestColdMiss(t *testing.T) {
	p := quietPlatform(t)
	s := newSim(t, p, 1)
	a := p.ContextOf(0, 0)         // socket 0
	b := p.ContextOf(2*p.Cores, 0) // socket 2
	ta, tb := newThread(t, s, a), newThread(t, s, b)
	nodes := uint64(p.NumNodes())
	for _, c := range []struct {
		th   *sim.Thread
		ctx  int
		line uint64
	}{{ta, a, 1}, {ta, a, 2}, {tb, b, 3}, {tb, b, 4 + nodes}} {
		want := p.MemLat[p.SocketOf(c.ctx)][c.line%nodes]
		if got := cas(c.th, c.line); got != want {
			t.Errorf("cold CAS of line %d from ctx %d = %d, want %d", c.line, c.ctx, got, want)
		}
	}
}

func TestHitAfterOwnAccess(t *testing.T) {
	p := quietPlatform(t)
	s := newSim(t, p, 1)
	th := newThread(t, s, p.ContextOf(1, 0))
	th.CAS(1)
	for i := 0; i < 3; i++ {
		if c := cas(th, 1); c != p.HitCASLat {
			t.Errorf("CAS hit %d cost = %d, want %d", i, c, p.HitCASLat)
		}
	}
}

// TestRFOWalkthrough reproduces Figure 4 of the paper: a line Modified in
// core o's caches; core r issues an RFO. The request misses privately, finds
// the owner, invalidates it, and is granted ownership.
func TestRFOWalkthrough(t *testing.T) {
	p := quietPlatform(t)
	s := newSim(t, p, 1)
	o, r, far := p.ContextOf(1, 0), p.ContextOf(0, 0), p.ContextOf(p.Cores, 0)
	to, tr, tfar := newThread(t, s, o), newThread(t, s, r), newThread(t, s, far)
	to.CAS(7)
	if c, want := cas(tr, 7), p.PairLatency(r, o); c != want {
		t.Errorf("same-socket RFO cost = %d, want %d", c, want)
	}
	if c := cas(tr, 7); c != p.HitCASLat {
		t.Errorf("requester's CAS after the RFO = %d, want a hit (%d)", c, p.HitCASLat)
	}
	if c, want := cas(tfar, 7), p.PairLatency(far, r); c != want {
		t.Errorf("cross-socket RFO cost = %d, want %d", c, want)
	}
}

// TestSMTSiblingCAS verifies the same-core latency of the lock-step
// measurement: the two SMT contexts of core 0.
func TestSMTSiblingCAS(t *testing.T) {
	p := quietPlatform(t)
	s := newSim(t, p, 1)
	a, sib := newThread(t, s, p.ContextOf(0, 0)), newThread(t, s, p.ContextOf(0, 1))
	a.CAS(9)
	if c := cas(sib, 9); c != p.SameCoreLat {
		t.Errorf("SMT sibling CAS = %d, want %d", c, p.SameCoreLat)
	}
	// Ping back.
	if c := cas(a, 9); c != p.SameCoreLat {
		t.Errorf("SMT sibling CAS back = %d, want %d", c, p.SameCoreLat)
	}
	// Same context repeating: plain hit.
	if c := cas(a, 9); c != p.HitCASLat {
		t.Errorf("own repeated CAS = %d, want %d", c, p.HitCASLat)
	}
}

// TestDeterminism: the same CAS sequence always produces the same costs,
// noise and DVFS included.
func TestDeterminism(t *testing.T) {
	p := sim.Ivy()
	run := func() []int64 {
		s := newSim(t, p, 42)
		ths := make([]*sim.Thread, 8)
		for i := range ths {
			ths[i] = newThread(t, s, i*p.NumContexts()/len(ths))
		}
		rng := rand.New(rand.NewSource(42))
		var costs []int64
		for i := 0; i < 2000; i++ {
			c := cas(ths[rng.Intn(len(ths))], uint64(rng.Intn(16)))
			if c <= 0 {
				t.Fatalf("access %d: cost %d, want > 0", i, c)
			}
			costs = append(costs, c)
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
	p := quietPlatform(t)
	pairs := [][2]int{
		{p.ContextOf(0, 0), p.ContextOf(0, 1)},         // SMT siblings
		{p.ContextOf(0, 0), p.ContextOf(1, 0)},         // same socket
		{p.ContextOf(0, 0), p.ContextOf(p.Cores, 0)},   // one hop
		{p.ContextOf(1, 0), p.ContextOf(2*p.Cores, 0)}, // two hops
	}
	for _, pr := range pairs {
		s := newSim(t, p, 1)
		x, y := newThread(t, s, pr[0]), newThread(t, s, pr[1])
		want := p.PairLatency(pr[0], pr[1])
		x.CAS(5) // warm
		for i := 0; i < 10; i++ {
			who := []*sim.Thread{y, x}[i%2]
			if c := cas(who, 5); c != want {
				t.Errorf("pair %v iter %d: cost %d, want %d", pr, i, c, want)
			}
		}
	}
}

// Property: after any CAS the line is held by the CASing context — its own
// next CAS hits, and anyone else's pays the transfer from it.
func TestStoreAlwaysTakesOwnership(t *testing.T) {
	p := quietPlatform(t)
	n := p.NumContexts()
	f := func(seed int64) bool {
		s := newSim(t, p, 1)
		ths := make([]*sim.Thread, n)
		for i := range ths {
			ths[i] = newThread(t, s, i)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			ths[rng.Intn(n)].CAS(uint64(rng.Intn(4)))
		}
		ctx := rng.Intn(n)
		other := (ctx + 1 + rng.Intn(n-1)) % n
		ths[ctx].CAS(2)
		if cas(ths[ctx], 2) != p.HitCASLat {
			return false
		}
		return cas(ths[other], 2) == p.PairLatency(other, ctx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
