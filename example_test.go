package mctop_test

import (
	"context"
	"fmt"

	mctop "repro"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Validate cross-checks an inferred topology against the operating
// system's view of the machine (Section 3.6). On the simulated Ivy Bridge
// the OS view agrees; an OS that has the two sockets' local memory nodes
// swapped is caught.
func ExampleValidate() {
	top, err := mctop.Infer(context.Background(), "Ivy", 42)
	if err != nil {
		fmt.Println(err)
		return
	}
	m, err := machine.NewSim(sim.Ivy(), 42)
	if err != nil {
		fmt.Println(err)
		return
	}
	view := m.OSView()
	fmt.Println(len(mctop.Validate(top, view.CoreOfCtx, view.SocketOfCtx, view.NodeOfSocket)), "divergences")

	wrong := []int{view.NodeOfSocket[1], view.NodeOfSocket[0]}
	for _, d := range mctop.Validate(top, view.CoreOfCtx, view.SocketOfCtx, wrong) {
		fmt.Println(d)
	}
	// Output:
	// 0 divergences
	// socket-to-node mapping differs for sockets [0 1] (OS may be misconfigured; rerun the memory-latency experiment to confirm)
}
