package exec_test

// Estimate is the evaluator behind Figures 10-12, whose drivers pick
// winners with `r.Cycles < best.Cycles` and ±0.5 % tie rules — so it has to
// be a function. It was not while it summed floats over maps: on SPARC at
// 48 threads, BALANCE_HWC / RR_HWC x PageRank, Rand Degr. Samp. and Matrix
// Mult returned Cycles differing by one from call to call. This is the test
// that protects cmd/mctop-bench's figure golden from that bug class.

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/mapreduce"
	"repro/internal/omp"
	"repro/internal/place"
	"repro/internal/topo"
)

func TestEstimateDeterministic(t *testing.T) {
	for _, file := range []string{"ivy", "westmere", "haswell", "opteron", "sparc"} {
		tp, err := topo.LoadFile(filepath.Join("..", "topo", "testdata", file+".mctop"))
		if err != nil {
			t.Fatal(err)
		}
		var profiles []exec.Workload
		for _, wl := range mapreduce.Workloads() {
			profiles = append(profiles, mapreduce.Profile(wl, tp))
		}
		for _, k := range omp.Kernels() {
			if k != omp.KCombination { // two kernels back to back, no profile of its own
				profiles = append(profiles, omp.KernelProfile(k, tp))
			}
		}
		for _, pol := range place.Policies() {
			if pol == place.PowerPolicy && !tp.Power().Available() {
				continue
			}
			for _, n := range exec.ThreadCandidates(tp) {
				pl, err := place.New(tp, pol, place.Options{NThreads: n})
				if err != nil {
					t.Fatal(err)
				}
				ctxs := pl.Contexts()
				for _, wl := range profiles {
					first, err := exec.Estimate(tp, ctxs, wl)
					if err != nil {
						t.Fatal(err)
					}
					for i := 1; i < 50; i++ {
						again, _ := exec.Estimate(tp, ctxs, wl)
						if !reflect.DeepEqual(first, again) {
							t.Errorf("%s %v x%d %q: call %d returned %+v, call 0 %+v",
								file, pol, n, wl.Name, i, again, first)
							break
						}
					}
				}
			}
		}
	}
}
