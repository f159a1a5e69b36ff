// Educated lock backoffs (Sections 5 and 7.1): derive the backoff quantum
// from MCTOP's latencies, run the real Go spinlocks, and regenerate a
// Figure 8 row on the simulated Opteron's coherence fabric.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	mctop "repro"
	"repro/internal/contend"
	"repro/internal/locks"
	"repro/internal/sim"
)

func main() {
	top, err := mctop.Infer(context.Background(), "Opteron", 42)
	if err != nil {
		log.Fatal(err)
	}

	// The educated quantum: the maximum communication latency between any
	// two participating threads.
	participants := []int{0, 1, 6, 7, 12, 13, 18, 19} // sockets 0-3
	backoff := locks.EducatedBackoff(top, participants, false)
	fmt.Printf("educated backoff quantum for %v: %d cycles\n", participants, backoff.Quantum)
	fmt.Printf("whole-machine quantum: %d cycles\n", top.MaxLatency())

	// Real locks under real goroutines.
	for _, alg := range locks.Algorithms() {
		l := locks.New(alg, backoff)
		var counter int
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20000; i++ {
					l.Lock()
					counter++
					l.Unlock()
				}
			}()
		}
		wg.Wait()
		fmt.Printf("%-7s with educated backoff: %d acquisitions in %v\n",
			alg, counter, time.Since(start).Round(time.Millisecond))
	}

	// Figure 8 on the simulated coherence fabric: educated vs baseline.
	p, err := sim.ByName("Opteron")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nticket lock, educated/baseline throughput (simulated Opteron):")
	for n := 4; n <= p.NumContexts(); n *= 2 {
		threads := make([]int, n)
		for i := range threads {
			threads[i] = i
		}
		cfg := contend.Config{Platform: p, Threads: threads, Alg: locks.AlgTicket,
			CSWork: 1000, PauseWork: 100, Horizon: 3_000_000}
		_, _, ratio, err := contend.RelativeThroughput(cfg, top.MaxLatency())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %3d threads: %.2fx\n", n, ratio)
	}
}
