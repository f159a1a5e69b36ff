// Topology-aware mergesort (Section 7.2): run the real mctop_sort and its
// bitonic-kernel variant on real data, then print a Figure 9 model row.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	mctop "repro"
	"repro/internal/msort"
)

func main() {
	top, err := mctop.Infer(context.Background(), "Ivy", 42)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	data := make([]int32, 4<<20)
	for i := range data {
		data[i] = int32(rng.Int63())
	}

	run := func(name string, sortFn func([]int32) error) {
		d := append([]int32(nil), data...)
		start := time.Now()
		if err := sortFn(d); err != nil {
			log.Fatal(err)
		}
		if !msort.SortedInt32(d) {
			log.Fatalf("%s produced unsorted output", name)
		}
		fmt.Printf("%-22s %8d elements in %v\n", name, len(d), time.Since(start).Round(time.Millisecond))
	}

	run("parallel baseline", func(d []int32) error { msort.ParallelSort(d, 8); return nil })
	run("mctop_sort", func(d []int32) error { return msort.MCTOPSort(d, top, 8, 0) })
	run("mctop_sort_sse", func(d []int32) error { return msort.MCTOPSortSSE(d, top, 8, 0) })

	fmt.Println("\nFigure 9 model (1 GB of ints, full machine):")
	for _, v := range []msort.Variant{msort.VariantGNU, msort.VariantMCTOP, msort.VariantMCTOPSSE} {
		row, err := msort.ModelFig9(top, v, top.NumHWContexts())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %.2f s (seq %.2f + merge %.2f)\n",
			row.Variant, row.TotalSec(), row.SeqSec, row.MergeSec)
	}
}
