package locks

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/topo"
)

// mutualExclusion hammers a lock from several goroutines and checks the
// protected counter.
func mutualExclusion(t *testing.T, l Lock, workers, iters int) {
	t.Helper()
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Errorf("counter = %d, want %d", counter, workers*iters)
	}
}

func TestMutualExclusionAllAlgorithms(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, quantum := range []int64{0, 300} {
			l := New(alg, Backoff{Quantum: quantum})
			t.Run(alg.String(), func(t *testing.T) {
				mutualExclusion(t, l, 8, 2000)
			})
		}
	}
}

// TestOversubscribedHandOff: with four goroutines per P the holder — or the
// next ticket in line — is usually not running, so every hand-off depends
// on the spinners yielding. Without the yield in Backoff.wait this takes
// minutes under -race (one async preemption per hand-off); with it,
// seconds.
func TestOversubscribedHandOff(t *testing.T) {
	workers := 4 * runtime.GOMAXPROCS(0)
	for _, alg := range Algorithms() {
		for _, quantum := range []int64{0, 300} {
			t.Run(fmt.Sprintf("%s/q%d", alg, quantum), func(t *testing.T) {
				mutualExclusion(t, New(alg, Backoff{Quantum: quantum}), workers, 500)
			})
		}
	}
}

func TestTicketFIFO(t *testing.T) {
	// With a single goroutine interleaving acquires, the ticket lock must
	// hand out strictly increasing tickets.
	l := &Ticket{}
	for i := 0; i < 100; i++ {
		l.Lock()
		l.Unlock()
	}
	if l.next != 100 || l.grant != 100 {
		t.Errorf("ticket counters = %d/%d", l.next, l.grant)
	}
}

func TestUncontendedFastPath(t *testing.T) {
	for _, alg := range Algorithms() {
		l := New(alg, Backoff{})
		l.Lock()
		l.Unlock()
		l.Lock()
		l.Unlock()
	}
}

func TestEducatedBackoffQuantum(t *testing.T) {
	spec := testSpec()
	tp, err := topo.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Whole machine: cross-socket latency.
	b := EducatedBackoff(tp, nil, false)
	if b.Quantum != 308 {
		t.Errorf("whole-machine quantum = %d, want 308", b.Quantum)
	}
	// Same-socket participants: intra-socket latency.
	b = EducatedBackoff(tp, []int{0, 1, 2}, false)
	if b.Quantum != 112 {
		t.Errorf("intra quantum = %d, want 112", b.Quantum)
	}
	// Same-core participants: SMT latency.
	b = EducatedBackoff(tp, []int{0, 20}, false)
	if b.Quantum != 28 {
		t.Errorf("core quantum = %d, want 28", b.Quantum)
	}
}

func TestNewTicketProportional(t *testing.T) {
	l := New(AlgTicket, Backoff{Quantum: 100})
	tk := l.(*Ticket)
	if !tk.Backoff.Proportional {
		t.Error("educated ticket backoff should be proportional")
	}
	base := New(AlgTicket, Backoff{})
	if base.(*Ticket).Backoff.Proportional {
		t.Error("baseline ticket backoff should not be proportional")
	}
}

// testSpec is a tiny Ivy-like topology for quantum tests.
func testSpec() topo.Spec {
	nCores := 20
	coreGroups := make([][]int, nCores)
	for c := 0; c < nCores; c++ {
		coreGroups[c] = []int{c, c + nCores}
	}
	sockGroups := make([][]int, 2)
	for s := 0; s < 2; s++ {
		for c := 0; c < 10; c++ {
			core := s*10 + c
			sockGroups[s] = append(sockGroups[s], core, core+nCores)
		}
	}
	return topo.Spec{
		Name: "t", Contexts: 40, Nodes: 2, SMTWays: 2,
		Levels: []topo.Level{
			{Name: "core", Kind: topo.LevelGroup, Min: 27, Median: 28, Max: 29, Groups: coreGroups},
			{Name: "socket", Kind: topo.LevelSocket, Min: 96, Median: 112, Max: 128, Groups: sockGroups},
			{Name: "cross", Kind: topo.LevelCross, Min: 300, Median: 308, Max: 316},
		},
		NodeOfSocket: []int{0, 1},
		SocketLat:    [][]int64{{112, 308}, {308, 112}},
	}
}
