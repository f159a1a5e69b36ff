// MCTOP MP (Section 7.4): an OpenMP-style runtime with runtime-switchable
// placement policies and automatic policy selection, driving PageRank over
// a synthetic power-law graph.
package main

import (
	"context"
	"fmt"
	"log"

	mctop "repro"
	"repro/internal/graph"
	"repro/internal/omp"
	"repro/internal/place"
)

func main() {
	top, err := mctop.Infer(context.Background(), "Ivy", 42)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := omp.New(top)
	if err != nil {
		log.Fatal(err)
	}

	g := graph.GenPowerLaw(200_000, 8, 7)
	fmt.Printf("graph: %d nodes, %d edges\n", g.N, g.NumEdges())

	// Default OpenMP behaviour: unpinned.
	fmt.Printf("default binding policy: %v, team size %d\n", rt.BindingPolicy(), rt.NumThreads())

	// The paper's omp_set_binding_policy: switch to BALANCE for the
	// bandwidth-bound PageRank region...
	if err := rt.SetBindingPolicy(place.BalanceCore, place.Options{NThreads: 8}); err != nil {
		log.Fatal(err)
	}
	ranks := graph.PageRank(g, 10, 0.85, rt.NumThreads())
	fmt.Printf("PageRank under %v: rank[0] = %.3g (hub)\n", rt.BindingPolicy(), ranks[0])

	// ...and to a compact policy for the latency-bound BFS region.
	if err := rt.SetBindingPolicy(place.ConCoreHWC, place.Options{NThreads: 8}); err != nil {
		log.Fatal(err)
	}
	dist := graph.HopDistance(g, 0, rt.NumThreads())
	reached := 0
	for _, d := range dist {
		if d >= 0 {
			reached++
		}
	}
	fmt.Printf("BFS under %v: reached %d/%d nodes\n", rt.BindingPolicy(), reached, g.N)

	// Automatic policy selection: sample the region under candidates.
	chosen, err := rt.AutoSelect(
		[]place.Policy{place.ConCoreHWC, place.BalanceCore, place.RRCore},
		place.Options{NThreads: 8},
		func() { graph.PageRank(g, 1, 0.85, rt.NumThreads()) },
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auto-selected policy for PageRank: %v\n", chosen)

	// The Figure 12 model for this machine.
	rows, err := omp.ModelFig12(top)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 12 model (MCTOP MP / default OpenMP, lower is better):")
	for _, r := range rows {
		fmt.Printf("  %-18s %-28v %.3f\n", r.Kernel, r.Chosen, r.RelTime)
	}
}
