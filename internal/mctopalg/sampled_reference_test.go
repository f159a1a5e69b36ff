package mctopalg

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// refPair is one (x, y) context pair of the reference plan, x < y.
type refPair struct{ x, y int }

// refSampled is what the reference plan did: its waves, in order, and its
// counters.
type refSampled struct {
	waves          [][]refPair
	filledPairs    int
	fallbackBlocks int
}

// sampledReference is measureSampled as it was before class-pair blocks
// were walked instead of built: every block's pairs are materialised and
// sorted, and its probes chosen from that list (probeIndicesReference).
// Its waves are measured by measure into tab. Kept verbatim but for the
// measurement seam and the trace spans; TestSampledMatchesReference and
// FuzzSampledMatchesReference hold measureSampled to it.
func sampledReference(n int, tab [][]int64, measure func([]refPair)) refSampled {
	var out refSampled

	// Phase 1: pilots.
	k := pilotCount(n)
	stride := n / k
	pilots := make([]int, k)
	isPilot := make([]bool, n)
	for i := range pilots {
		pilots[i] = i * stride
		isPilot[i*stride] = true
	}
	wave1 := make([]refPair, 0, k*n)
	for x := 0; x < n-1; x++ {
		if isPilot[x] {
			for y := x + 1; y < n; y++ {
				wave1 = append(wave1, refPair{x, y})
			}
		} else {
			for _, p := range pilots {
				if p > x {
					wave1 = append(wave1, refPair{x, p})
				}
			}
		}
	}
	measure(wave1)
	out.waves = append(out.waves, wave1)

	// Classes.
	classIdx := map[string]int{}
	var classes [][]int
	var sigb strings.Builder
	for x := 0; x < n; x++ {
		if isPilot[x] {
			continue
		}
		sigb.Reset()
		for _, p := range pilots {
			sigb.WriteString(strconv.FormatInt(tab[x][p], 10))
			sigb.WriteByte(',')
		}
		sig := sigb.String()
		ci, ok := classIdx[sig]
		if !ok {
			ci = len(classes)
			classIdx[sig] = ci
			classes = append(classes, nil)
		}
		classes[ci] = append(classes[ci], x)
	}

	// Noise gate.
	distinct := make([]int64, 0, 64)
	seen := map[int64]bool{}
	for _, p := range wave1 {
		if v := tab[p.x][p.y]; !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	slices.Sort(distinct)
	noisy := false
	for i := 1; i < len(distinct); i++ {
		if distinct[i]-distinct[i-1] <= noiseGapMin {
			noisy = true
			break
		}
	}

	// Phase 2.
	const V = verifyPerBlock
	type block struct {
		pairs    []refPair // unmeasured pairs, canonical order
		probeIdx []int     // indices into pairs measured for verification
	}
	var blocks []block
	var exhaustNow []refPair // diagonal, small, or noisy-run blocks
	for ci := 0; ci < len(classes); ci++ {
		for cj := ci; cj < len(classes); cj++ {
			var bp []refPair
			if ci == cj {
				members := classes[ci]
				bp = make([]refPair, 0, len(members)*(len(members)-1)/2)
				for i := 0; i < len(members)-1; i++ {
					for j := i + 1; j < len(members); j++ {
						bp = append(bp, refPair{members[i], members[j]})
					}
				}
			} else {
				bp = make([]refPair, 0, len(classes[ci])*len(classes[cj]))
				for _, a := range classes[ci] {
					for _, b := range classes[cj] {
						bp = append(bp, refPair{min(a, b), max(a, b)})
					}
				}
			}
			// The pairs are distinct, so this is the one (x, y) order.
			slices.SortFunc(bp, func(a, b refPair) int {
				if c := cmp.Compare(a.x, b.x); c != 0 {
					return c
				}
				return cmp.Compare(a.y, b.y)
			})
			if noisy || ci == cj || len(bp) <= V+1 {
				exhaustNow = append(exhaustNow, bp...)
				continue
			}
			blocks = append(blocks, block{pairs: bp, probeIdx: probeIndicesReference(bp, V)})
		}
	}
	if noisy {
		out.fallbackBlocks = len(classes) * (len(classes) + 1) / 2
	}

	wave2 := append([]refPair(nil), exhaustNow...)
	for _, b := range blocks {
		for _, pi := range b.probeIdx {
			wave2 = append(wave2, b.pairs[pi])
		}
	}
	measure(wave2)
	out.waves = append(out.waves, wave2)

	// Phase 3.
	var wave3 []refPair
	for _, b := range blocks {
		rep := tab[b.pairs[b.probeIdx[0]].x][b.pairs[b.probeIdx[0]].y]
		agree := true
		for _, pi := range b.probeIdx[1:] {
			if tab[b.pairs[pi].x][b.pairs[pi].y] != rep {
				agree = false
				break
			}
		}
		if !agree {
			out.fallbackBlocks++
			for _, p := range b.pairs {
				if tab[p.x][p.y] == 0 {
					wave3 = append(wave3, p)
				}
			}
			continue
		}
		for _, p := range b.pairs {
			if tab[p.x][p.y] == 0 {
				tab[p.x][p.y] = rep
				tab[p.y][p.x] = rep
				out.filledPairs++
			}
		}
	}
	measure(wave3)
	out.waves = append(out.waves, wave3)
	return out
}

// probeIndicesReference is probeIndices as it was, reading the block's
// materialised pair list.
func probeIndicesReference(bp []refPair, v int) []int {
	idx := []int{0, len(bp) - 1}
	h := uint64(bp[0].x)<<32 | uint64(bp[0].y)
	for len(idx) < v+1 && len(idx) < len(bp) {
		h = probeMix(h)
		cand := int(h % uint64(len(bp)))
		if !slices.Contains(idx, cand) {
			idx = append(idx, cand)
		}
	}
	sort.Ints(idx)
	return idx
}

// recordingForker hands out forks that record, in order, every pair they
// are re-forked for: at Parallelism 1, the waves of a collection
// concatenated.
type recordingForker struct {
	*machine.SimMachine
	mu    sync.Mutex
	pairs []refPair
}

func (r *recordingForker) NewFork() machine.Fork {
	return &recordingFork{Fork: r.SimMachine.NewFork(), r: r}
}

type recordingFork struct {
	machine.Fork
	r *recordingForker
}

func (f *recordingFork) Refork(x, y int) error {
	f.r.mu.Lock()
	f.r.pairs = append(f.r.pairs, refPair{x, y})
	f.r.mu.Unlock()
	return f.Fork.Refork(x, y)
}

// checkSampledMatchesReference collects p's table at seed in the sampled
// mode with the given floor, and with the reference plan, each pair of
// the latter measured on a one-shot fork. Both must measure the same
// pairs in the same order and end with the same table and counters.
func checkSampledMatchesReference(t *testing.T, p *sim.Platform, seed uint64, floor int) {
	t.Helper()
	m, err := machine.NewSim(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Sampling, opt.floor, opt.Parallelism = true, floor, 1
	opt.fillDefaults()
	rec := &recordingForker{SimMachine: m}
	res := &Result{}
	if err := collectTable(context.Background(), rec, &opt, res); err != nil {
		t.Fatal(err)
	}
	if !res.Sampled {
		t.Fatalf("%s: %d contexts under floor %d did not sample", p.Name, p.NumContexts(), floor)
	}

	n := p.NumContexts()
	tab := make([][]int64, n)
	for i := range tab {
		tab[i] = make([]int64, n)
	}
	sc := newScratch(&opt)
	measure := func(wave []refPair) {
		for _, pr := range wave {
			sc.fork = m.NewFork()
			med, err := measureForked(&opt, sc, pr.x, pr.y)
			if err != nil {
				t.Fatal(err)
			}
			tab[pr.x][pr.y], tab[pr.y][pr.x] = med, med
		}
	}
	ref := sampledReference(n, tab, measure)

	var want []refPair
	for _, w := range ref.waves {
		want = append(want, w...)
	}
	if !slices.Equal(rec.pairs, want) {
		at := 0
		for at < min(len(rec.pairs), len(want)) && rec.pairs[at] == want[at] {
			at++
		}
		t.Fatalf("%s: measured %d pairs, reference waves %d (lengths %d/%d/%d); first difference at %d",
			p.Name, len(rec.pairs), len(want), len(ref.waves[0]), len(ref.waves[1]), len(ref.waves[2]), at)
	}
	if res.Pairs != len(want) || res.FilledPairs != ref.filledPairs || res.FallbackBlocks != ref.fallbackBlocks {
		t.Fatalf("%s: pairs/filled/fallback %d/%d/%d, reference %d/%d/%d", p.Name,
			res.Pairs, res.FilledPairs, res.FallbackBlocks, len(want), ref.filledPairs, ref.fallbackBlocks)
	}
	if !reflect.DeepEqual(dense(res.RawTable), tab) {
		t.Fatalf("%s: tables differ from the reference plan's", p.Name)
	}
}

// TestSampledMatchesReference runs the reference plan against the sampled
// mode on the generated shapes its tests use, a circulant whose probes
// disagree in three blocks, a noisy one (the gate's full fallback) and
// the pinned 512-context mesh at its own floor.
func TestSampledMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		floor int
	}{
		{"gen:mesh:s9:c4:t1", 8},
		{"gen:mesh:s25:c2:t2:v7", 8},
		{"gen:ring:s16:c8:t2:v3", 8},
		{"gen:circulant:s16:c4:t2:v11", 8},
		{"gen:circulant:s32:c4:t2", 8},
		{"gen:circulant:s14:c3:t2:v3", 8},
		{"gen:ring:s6:c2:t2:n1", 8},
		{"gen:mesh:s16:c16:t2", samplingFloor},
	} {
		p, err := sim.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		checkSampledMatchesReference(t, p, 7, tc.floor)
	}
}

// FuzzSampledMatchesReference draws a generated mesh, ring or circulant
// platform of up to 128 contexts, noisy or not, a lowered sampling floor
// and a seed from the bytes, and requires the sampled mode to measure the
// reference plan's waves in order, with its table and counters.
func FuzzSampledMatchesReference(f *testing.F) {
	f.Add([]byte{0, 7, 3, 0, 0, 0, 7})     // gen:mesh:s9:c4:t1, floor 8
	f.Add([]byte{1, 14, 3, 1, 0, 0, 3})    // gen:ring:s16:c4:t2:v3
	f.Add([]byte{2, 14, 3, 1, 0, 4, 11})   // gen:circulant:s16:c4:t2:v11, floor 12
	f.Add([]byte{1, 4, 1, 1, 1, 0, 1})     // gen:ring:s6:c2:t2:v1:n1, the noise gate
	f.Add([]byte{2, 11, 2, 0, 0, 20, 200}) // gen:circulant:s13:c3:t1:v200, floor 28
	f.Add([]byte{2, 12, 2, 1, 0, 0, 3})    // gen:circulant:s14:c3:t2:v3: 3 fallback blocks
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 7 {
			return
		}
		kinds := []sim.GenKind{sim.GenMesh, sim.GenRing, sim.GenCirculant}
		spec := sim.GenSpec{
			Kind:    kinds[int(b[0])%len(kinds)],
			Sockets: 2 + int(b[1])%15,
			Cores:   1 + int(b[2])%4,
			SMT:     1 + int(b[3])%2,
			Noise:   b[4]&1 == 1,
			Seed:    uint64(b[6]),
		}
		p, err := sim.Generate(spec)
		if err != nil {
			t.Skip(err)
		}
		floor := 8 + int(b[5])%24
		if p.NumContexts() < floor {
			return
		}
		t.Run(fmt.Sprintf("%s/floor%d", p.Name, floor), func(t *testing.T) {
			checkSampledMatchesReference(t, p, uint64(b[6]), floor)
		})
	})
}
