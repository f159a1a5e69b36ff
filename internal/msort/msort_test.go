package msort

import (
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/topo"
)

var (
	topoOnce sync.Once
	ivyTopo  *topo.Topology
)

func ivy(t *testing.T) *topo.Topology {
	t.Helper()
	topoOnce.Do(func() {
		m, err := machine.NewSim(sim.Ivy(), 19)
		if err != nil {
			t.Fatal(err)
		}
		o := mctopalg.Options{Reps: 51}
		res, err := mctopalg.Infer(m, o)
		if err != nil {
			t.Fatal(err)
		}
		ivyTopo, err = plugins.Enrich(m, res.Topology, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	return ivyTopo
}

// equalInt32 compares contents, treating nil and empty as equal.
func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomData(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Int63())
	}
	return out
}

// sortedCopy is the reference result.
func sortedCopy(a []int32) []int32 {
	out := append([]int32(nil), a...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestQuicksortMatchesStdlib(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		data := randomData(int(n%5000)+1, seed)
		want := sortedCopy(data)
		quicksort(data)
		return equalInt32(data, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuicksortEdgeCases(t *testing.T) {
	cases := [][]int32{
		{},
		{1},
		{2, 1},
		{1, 1, 1, 1},
		{5, 4, 3, 2, 1},
		{1, 2, 3, 4, 5},
	}
	for _, c := range cases {
		want := sortedCopy(c)
		quicksort(c)
		if !equalInt32(c, want) {
			t.Errorf("quicksort(%v) = %v", want, c)
		}
	}
}

func TestMerge8Kernel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b [8]int32
		for i := range a {
			a[i] = int32(rng.Intn(1000))
			b[i] = int32(rng.Intn(1000))
		}
		sort.Slice(a[:], func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b[:], func(i, j int) bool { return b[i] < b[j] })
		lo, hi := merge8(a, b)
		got := append(lo[:], hi[:]...)
		want := sortedCopy(append(a[:], b[:]...))
		return equalInt32(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeBitonicEquivalence(t *testing.T) {
	f := func(seed int64, na, nb uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]int32, int(na%600))
		b := make([]int32, int(nb%600))
		for i := range a {
			a[i] = int32(rng.Intn(5000))
		}
		for i := range b {
			b[i] = int32(rng.Intn(5000))
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		got := make([]int32, len(a)+len(b))
		mergeBitonic(got, a, b)
		want := make([]int32, len(a)+len(b))
		mergeScalar(want, a, b)
		return equalInt32(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRankSplit(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{2, 4, 6, 8}
	for k := 0; k <= 8; k++ {
		i, j := rankSplit(a, b, k)
		if i+j != k {
			t.Fatalf("k=%d: i+j = %d", k, i+j)
		}
		// Merging prefixes yields exactly the k smallest elements.
		merged := sortedCopy(append(append([]int32(nil), a[:i]...), b[:j]...))
		all := sortedCopy(append(append([]int32(nil), a...), b...))
		if !equalInt32(merged, all[:k]) {
			t.Errorf("k=%d: prefix %v, want %v", k, merged, all[:k])
		}
	}
}

func TestParallelSort(t *testing.T) {
	for _, threads := range []int{1, 2, 7, 16} {
		data := randomData(100_000, int64(threads))
		want := sortedCopy(data)
		ParallelSort(data, threads)
		if !equalInt32(data, want) {
			t.Fatalf("ParallelSort with %d threads broken", threads)
		}
	}
}

func TestMCTOPSort(t *testing.T) {
	tp := ivy(t)
	for _, threads := range []int{1, 4, 16, 40} {
		data := randomData(120_000, int64(threads)+100)
		want := sortedCopy(data)
		if err := MCTOPSort(data, tp, threads, 0); err != nil {
			t.Fatal(err)
		}
		if !equalInt32(data, want) {
			t.Fatalf("MCTOPSort with %d threads broken", threads)
		}
	}
}

func TestMCTOPSortSSE(t *testing.T) {
	tp := ivy(t)
	for _, threads := range []int{2, 8, 24} {
		data := randomData(150_000, int64(threads)+200)
		want := sortedCopy(data)
		if err := MCTOPSortSSE(data, tp, threads, 1); err != nil {
			t.Fatal(err)
		}
		if !equalInt32(data, want) {
			t.Fatalf("MCTOPSortSSE with %d threads broken", threads)
		}
	}
}

func TestMCTOPSortProperty(t *testing.T) {
	tp := ivy(t)
	f := func(seed int64, n uint16, threads uint8) bool {
		size := int(n%20000) + 1
		th := int(threads%12) + 1
		data := randomData(size, seed)
		want := sortedCopy(data)
		if err := MCTOPSort(data, tp, th, 0); err != nil {
			return false
		}
		return equalInt32(data, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortedInt32(t *testing.T) {
	if !SortedInt32([]int32{1, 2, 2, 3}) {
		t.Error("sorted slice reported unsorted")
	}
	if SortedInt32([]int32{2, 1}) {
		t.Error("unsorted slice reported sorted")
	}
}

// TestFig9Shape validates the paper's claims on the model: mctop_sort beats
// gnu on every platform, the sequential parts are comparable, the gains
// come from merging, mctop_sort_sse is at least as fast as mctop_sort, and
// the baseline's disadvantage is larger at 16 threads.
func TestFig9Shape(t *testing.T) {
	tp := ivy(t)
	for _, threads := range []int{16, 40} {
		gnu, err := ModelFig9(tp, VariantGNU, threads)
		if err != nil {
			t.Fatal(err)
		}
		mct, err := ModelFig9(tp, VariantMCTOP, threads)
		if err != nil {
			t.Fatal(err)
		}
		sse, err := ModelFig9(tp, VariantMCTOPSSE, threads)
		if err != nil {
			t.Fatal(err)
		}
		if mct.TotalSec() >= gnu.TotalSec() {
			t.Errorf("%d threads: mctop %.2fs >= gnu %.2fs", threads, mct.TotalSec(), gnu.TotalSec())
		}
		if sse.TotalSec() > mct.TotalSec()*1.001 {
			t.Errorf("%d threads: sse %.2fs > mctop %.2fs", threads, sse.TotalSec(), mct.TotalSec())
		}
		if mct.MergeSec >= gnu.MergeSec {
			t.Errorf("%d threads: merge not improved: %.2f vs %.2f", threads, mct.MergeSec, gnu.MergeSec)
		}
		// Sequential parts comparable (the first step is the same code).
		ratio := mct.SeqSec / gnu.SeqSec
		if ratio < 0.6 || ratio > 1.1 {
			t.Errorf("%d threads: seq ratio = %.2f, want comparable", threads, ratio)
		}
	}
	// The paper: benefits are larger with 16 threads than full machine.
	gnu16, _ := ModelFig9(tp, VariantGNU, 16)
	mct16, _ := ModelFig9(tp, VariantMCTOP, 16)
	gnuFull, _ := ModelFig9(tp, VariantGNU, 40)
	mctFull, _ := ModelFig9(tp, VariantMCTOP, 40)
	gain16 := gnu16.TotalSec() / mct16.TotalSec()
	gainFull := gnuFull.TotalSec() / mctFull.TotalSec()
	if gain16 <= gainFull {
		t.Errorf("gain at 16 threads (%.3f) should exceed full machine (%.3f)", gain16, gainFull)
	}
}

func TestModelValidation(t *testing.T) {
	tp := ivy(t)
	if _, err := ModelFig9(tp, VariantGNU, 0); err == nil {
		t.Error("zero threads should fail")
	}
	if _, err := ModelFig9(tp, VariantGNU, 10_000); err == nil {
		t.Error("too many threads should fail")
	}
}

// TestModelFig9Deterministic: every Figure 9 bar is a pure function of the
// topology. The socket list handed to reduce.Tree and the per-core float
// sum used to follow map iteration order, so Westmere, Haswell and Opteron
// rows moved in the second decimal between calls.
func TestModelFig9Deterministic(t *testing.T) {
	fixtures, err := filepath.Glob("../topo/testdata/*.mctop")
	if err != nil || len(fixtures) != 5 {
		t.Fatalf("golden topologies: %v, %v", fixtures, err)
	}
	for _, path := range fixtures {
		tp, err := topo.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := tp.Name()
		for _, v := range []Variant{VariantGNU, VariantMCTOP, VariantMCTOPSSE} {
			for _, threads := range []int{16, tp.NumHWContexts()} {
				want, err := ModelFig9(tp, v, threads)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < 50; i++ {
					if got, _ := ModelFig9(tp, v, threads); got != want {
						t.Fatalf("%s/%v/%d: call %d = %+v, first call = %+v", name, v, threads, i, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkAblation_MergeKernel measures the real scalar vs bitonic 8-wide
// merge kernels on in-memory data (the mctop_sort_sse design choice).
func BenchmarkAblation_MergeKernel(b *testing.B) {
	n := 1 << 16
	a := make([]int32, n)
	c := make([]int32, n)
	for i := range a {
		a[i] = int32(2 * i)
		c[i] = int32(2*i + 1)
	}
	dst := make([]int32, 2*n)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mergeScalar(dst, a, c)
		}
	})
	b.Run("bitonic8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mergeBitonic(dst, a, c)
		}
	})
}
