package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
)

// rdtscOverheadReference is the overhead estimate as MCTOP-ALG ran it
// before the machine ran it itself: reps pairs of back-to-back Rdtsc calls
// and the median of their differences. It also returns the differences. It
// is the oracle RdtscOverhead is checked against.
func rdtscOverheadReference(t *Thread, reps int) (int64, []int64) {
	diffs := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		s := t.Rdtsc()
		e := t.Rdtsc()
		diffs = append(diffs, e-s)
	}
	return stats.Median(diffs), diffs
}

// overheadState is what an estimate leaves behind that a later operation
// can observe.
type overheadState struct {
	now, busy int64
	opCtr     uint64
	nextNoise int64
}

func overheadStateOf(t *Thread) overheadState {
	s := t.s
	st := overheadState{now: t.now, busy: *s.busyOf(t.core), opCtr: s.opCtr}
	st.nextNoise = s.noise()
	s.opCtr-- // a peek: leave the stream where it was
	return st
}

// TestRdtscOverheadMatchesReference checks the closed-form estimate against
// the read-by-read loop: the median, the thread's clock, its core's busy
// counter and the untouched noise stream, over two estimates in a row, at
// 1, 2 and 101 read pairs. Every DVFS platform is started warm, cold, just
// below a P-state boundary (so one read pair straddles it), two P-states
// short of the ramp's end and a few reads short of it (so the estimate ends
// past the ramp). A platform whose P-states are shorter than one read
// crosses several per read.
func TestRdtscOverheadMatchesReference(t *testing.T) {
	shortStates := Custom("short-pstates", 2, 2, 2, 1, NumberingIntelHalves)
	shortStates.DVFS, shortStates.FreqMinGHz, shortStates.RampCycles = true, 1.1, 160
	platforms := []*Platform{shortStates}
	for _, name := range []string{"Ivy", "Westmere", "Haswell", "Opteron", "SPARC",
		"gen:ring:s6:c2:t2", "gen:mesh:s16:c16:t2"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		platforms = append(platforms, p)
	}
	for _, p := range platforms {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		r, tab := p.RdtscOverhead, &p.tab
		starts := map[string]int64{"warm": tab.dvfsRampEnd}
		if p.DVFS {
			starts["cold"] = 0
			starts["one below a P-state"] = tab.dvfsDwell - 1
			starts["one read below a P-state"] = tab.dvfsDwell - r
			starts["mid P-state"] = 5*tab.dvfsDwell - 37*r - 3
			starts["two P-states short"] = tab.dvfsRampEnd - 2*tab.dvfsDwell + r/2
			starts["reads short of the ramp"] = tab.dvfsRampEnd - 7*r - 1
		}
		ctx := p.ContextOf(p.NumCores()-1, 0)
		varied := false
		for start, busy := range starts {
			for _, reps := range []int{1, 2, 101} {
				what := fmt.Sprintf("%s %s reps %d", p.Name, start, reps)
				var threads [2]*Thread
				for i := range threads {
					s, err := New(p, 9)
					if err != nil {
						t.Fatal(err)
					}
					if threads[i], err = s.NewThread(ctx); err != nil {
						t.Fatal(err)
					}
					*s.busyOf(threads[i].core) = busy
				}
				fast, ref := threads[0], threads[1]
				for _, call := range []string{"first", "second"} {
					got := fast.s.RdtscOverhead(fast, reps)
					want, diffs := rdtscOverheadReference(ref, reps)
					if got != want {
						t.Fatalf("%s, %s estimate: %d, reference %d (differences %v)", what, call, got, want, diffs)
					}
					if g, w := overheadStateOf(fast), overheadStateOf(ref); g != w {
						t.Fatalf("%s, %s estimate: state differs\nRdtscOverhead %+v\nreference     %+v", what, call, g, w)
					}
					varied = varied || slices.Min(diffs) != slices.Max(diffs)
				}
			}
		}
		if p.DVFS && !varied {
			t.Errorf("%s: no estimate saw the frequency change; the ramp is not exercised", p.Name)
		}
	}
}
