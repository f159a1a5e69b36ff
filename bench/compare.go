package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain is `bench compare A.json B.json`: per workload and gated
// metric both medians, the delta, each side's round-to-round spread and a
// verdict. B is worse when its median moved against the metric's direction
// by more than the bound; a spread beyond the bound on either side leaves
// the pair unresolved. Exit 1 on any worse metric or a higher failed share.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	return compare(os.Stdout, a, b)
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(results)
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func verdict(a, b metricValue) (deltaPct float64, v string) {
	deltaPct = 100 * (b.Value - a.Value) / a.Value
	worse := deltaPct
	if a.Better == "higher" {
		worse = -deltaPct
	}
	switch {
	case 100*a.Spread > a.BoundPct || 100*b.Spread > a.BoundPct:
		v = "unresolved"
	case worse > a.BoundPct:
		v = "worse"
	case worse < -a.BoundPct:
		v = "better"
	default:
		v = "within"
	}
	return deltaPct, v
}

func compare(w *os.File, a, b *results) int {
	exit := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%s: only in A\n", wa.Name)
			continue
		}
		fmt.Fprintf(w, "%s\n  %-20s %14s %14s %8s %9s %9s  %s\n", wa.Name, "metric", "A", "B", "delta", "spread A", "spread B", "verdict")
		for _, ma := range wa.Metrics {
			mb, ok := wb.metric(ma.Name)
			if !ok {
				continue
			}
			d, v := verdict(ma, mb)
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(w, "  %-20s %14.4f %14.4f %+7.1f%% %8.1f%% %8.1f%%  %s\n", ma.Name, ma.Value, mb.Value, d, 100*ma.Spread, 100*mb.Spread, v)
		}
		shareA := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		shareB := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		if shareB > shareA {
			fmt.Fprintf(w, "  failed ops: %d of %d in A, %d of %d in B: worse\n", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			exit = 1
		}
		if wa.Digest != wb.Digest {
			fmt.Fprintf(w, "  output_digest differs (different -seed or different outputs)\n")
		}
	}
	return exit
}
