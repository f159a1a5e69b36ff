package contend

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/locks"
	"repro/internal/sim"
)

func TestProbeFig8(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for _, p := range []*sim.Platform{sim.Ivy(), sim.Opteron(), sim.SPARC()} {
		// The quantum is socket 0's latency to its farthest socket.
		q := slices.Max(p.SocketLatMatrix[0])
		for _, alg := range locks.Algorithms() {
			line := fmt.Sprintf("%-9s %-7s:", p.Name, alg)
			var sum float64
			var c int
			for n := 2; n <= p.NumContexts(); n *= 2 {
				cfg := Config{Platform: p, Threads: seqThreads(n), Alg: alg, CSWork: 1000, PauseWork: 100, Horizon: 3_000_000}
				_, _, r, _ := RelativeThroughput(cfg, q)
				line += fmt.Sprintf(" %d:%.2f", n, r)
				sum += r
				c++
			}
			t.Logf("%s  avg=%.3f", line, sum/float64(c))
		}
	}
}
