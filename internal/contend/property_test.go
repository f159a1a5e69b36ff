package contend

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/locks"
	"repro/internal/sim"
)

// Simulator invariants that must hold for any configuration: the results
// are meaningless otherwise.

// Property: per-thread acquisitions sum to the total; nothing is lost.
func TestAcquisitionConservation(t *testing.T) {
	f := func(seed int64, algN, nThreads uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alg := locks.Algorithms()[int(algN)%3]
		n := int(nThreads%16) + 1
		threads := make([]int, n)
		for i := range threads {
			threads[i] = rng.Intn(40)
			// Distinct contexts (the paper's threads are pinned uniquely).
			for j := 0; j < i; j++ {
				if threads[j] == threads[i] {
					threads[i] = (threads[i] + 1) % 40
					j = -1
				}
			}
		}
		res, err := Run(Config{Platform: sim.Ivy(), Threads: threads, Alg: alg,
			CSWork: 500, PauseWork: 50, Horizon: 500_000})
		if err != nil {
			return false
		}
		var sum int64
		for _, v := range res.PerThread {
			sum += v
		}
		return sum == res.Acquisitions && res.Acquisitions > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: the horizon bounds the work — doubling it roughly doubles
// acquisitions (never shrinks them).
func TestHorizonMonotone(t *testing.T) {
	threads := seqThreads(8)
	for _, alg := range locks.Algorithms() {
		short, err := Run(Config{Platform: sim.Ivy(), Threads: threads, Alg: alg,
			CSWork: 1000, PauseWork: 100, Horizon: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		long, err := Run(Config{Platform: sim.Ivy(), Threads: threads, Alg: alg,
			CSWork: 1000, PauseWork: 100, Horizon: 4_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if long.Acquisitions < short.Acquisitions {
			t.Errorf("%v: longer horizon produced fewer acquisitions", alg)
		}
		ratio := float64(long.Acquisitions) / float64(short.Acquisitions)
		if ratio < 3.0 || ratio > 5.0 {
			t.Errorf("%v: 4x horizon gave %.2fx acquisitions", alg, ratio)
		}
	}
}

// Property: longer critical sections never increase throughput.
func TestCSWorkMonotone(t *testing.T) {
	threads := seqThreads(8)
	prev := 1e18
	for _, cs := range []int64{200, 1000, 5000} {
		res, err := Run(Config{Platform: sim.Ivy(), Threads: threads,
			Alg: locks.AlgTicket, Quantum: 308, CSWork: cs, PauseWork: 100,
			Horizon: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput > prev {
			t.Errorf("CS %d: throughput rose with longer critical sections", cs)
		}
		prev = res.Throughput
	}
}

// Property: the platform's latencies matter — the same experiment on a
// machine with slower cross-socket links yields lower cross-socket
// contended throughput.
func TestLatencySensitivity(t *testing.T) {
	mk := func(p *sim.Platform) float64 {
		// Two threads on different sockets.
		threads := []int{0, 10}
		res, err := Run(Config{Platform: p, Threads: threads, Alg: locks.AlgTAS,
			CSWork: 1000, PauseWork: 100, Horizon: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	fast := sim.Ivy()
	slow := sim.Ivy()
	slow.SocketLatMatrix[0][1], slow.SocketLatMatrix[1][0] = 900, 900
	if mk(slow) >= mk(fast) {
		t.Error("slower interconnect did not reduce contended throughput")
	}
}
