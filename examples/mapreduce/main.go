// Metis-style MapReduce with MCTOP-PLACE (Section 7.3): Word Count and
// K-Means on worker pools pinned by high-level placement policies.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	mctop "repro"
	"repro/internal/mapreduce"
	"repro/internal/place"
)

func main() {
	top, err := mctop.Infer(context.Background(), "Ivy", 42)
	if err != nil {
		log.Fatal(err)
	}

	// Word Count with the RR placement the paper selects for it on x86.
	pl, err := place.NewFrom(top, place.RRCore, place.Options{NThreads: 8})
	if err != nil {
		log.Fatal(err)
	}
	words := []string{"topology", "latency", "bandwidth", "socket", "core", "mctop"}
	rng := rand.New(rand.NewSource(3))
	var chunks []string
	for c := 0; c < 16; c++ {
		var sb strings.Builder
		for i := 0; i < 5000; i++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		chunks = append(chunks, sb.String())
	}
	counts, err := mapreduce.WordCount(chunks, 0, pl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("word counts (RR_CORE placement):")
	for _, w := range words {
		fmt.Printf("  %-10s %d\n", w, counts[w])
	}

	// K-Means with the compact CON_CORE_HWC placement.
	plK, err := place.NewFrom(top, place.ConCoreHWC, place.Options{NThreads: 8})
	if err != nil {
		log.Fatal(err)
	}
	var points []mapreduce.Point
	centers := []mapreduce.Point{{X: 0, Y: 0}, {X: 20, Y: 20}, {X: -15, Y: 10}}
	for i := 0; i < 30000; i++ {
		c := centers[i%3]
		points = append(points, mapreduce.Point{
			X: c.X + rng.Float64() - 0.5, Y: c.Y + rng.Float64() - 0.5})
	}
	got, iters, err := mapreduce.KMeans(points, 3, 50, 8, plK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nk-means converged in %d iterations (CON_CORE_HWC placement):\n", iters)
	for _, c := range got {
		fmt.Printf("  centroid (%.2f, %.2f)\n", c.X, c.Y)
	}

	// The Figure 10 model for this machine.
	rows, err := mapreduce.ModelFig10(top)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 10 model (relative to stock Metis, lower is better):")
	for _, r := range rows {
		fmt.Printf("  %-12s %v: time %.3f, energy %.3f\n", r.Workload, r.Policy, r.RelTime, r.RelEnergy)
	}
}
