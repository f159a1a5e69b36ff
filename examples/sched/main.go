// Co-scheduling with the effective topology (the paper's Section 9 future
// work): multiple applications share one machine; each is admitted with
// the placement that minimizes its predicted runtime given what is already
// running, and the scheduler tracks every node's remaining bandwidth.
package main

import (
	"context"
	"fmt"
	"log"

	mctop "repro"
	"repro/internal/exec"
	"repro/internal/sched"
)

func main() {
	top, err := mctop.Infer(context.Background(), "Ivy", 42)
	if err != nil {
		log.Fatal(err)
	}
	s, err := sched.New(top)
	if err != nil {
		log.Fatal(err)
	}

	// A bandwidth hog streaming from node 0.
	hog := sched.App{Name: "analytics", Threads: 6, Workload: exec.Workload{
		Name: "analytics", Phases: []exec.Phase{{Bytes: 16 << 30, Data: 0}},
	}}
	a, err := s.Admit(hog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admitted %s: %d threads, %s placement, predicted %.2f s\n",
		a.App, len(a.Ctxs), a.Policy, a.Predicted.Seconds)

	// A latency-sensitive service: the scheduler steers it away from the
	// contended socket.
	svc := sched.App{Name: "service", Threads: 6, Workload: exec.Workload{
		Name: "service", Phases: []exec.Phase{{
			WorkCycles: 5e9, SMTFriendly: 0.3, Bytes: 4 << 30, Data: exec.DataLocal,
		}},
	}}
	b, err := s.Admit(svc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admitted %s: %d threads, %s placement, predicted %.2f s\n",
		b.App, len(b.Ctxs), b.Policy, b.Predicted.Seconds)
	sock := map[int]int{}
	for _, c := range b.Ctxs {
		sock[top.Context(c).Socket.ID]++
	}
	fmt.Printf("service threads per socket: %v (steered off the hog's socket)\n", sock)

	fmt.Println()
	fmt.Print(s.String())

	// The hog finishes; its bandwidth comes back.
	if err := s.Remove("analytics"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter analytics finishes, node 0 effective bandwidth: %.1f GB/s\n",
		s.EffectiveBandwidth(0))
}
