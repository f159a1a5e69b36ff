// Sampled (sub-O(N²)) measurement for large Forker machines.
//
// The exhaustive step 1 measures all N(N-1)/2 context pairs; at the 1k-10k
// context scale of generated platforms (internal/sim's Generate) that loop
// is the entire cost of a cold inference. Large interconnects are highly
// regular, though, which this mode exploits in three phases:
//
//  1. Pilot phase: measure every pair involving a small, evenly spaced
//     pilot context set. Each context's vector of latencies to the pilots
//     is its *signature*; contexts with byte-equal signatures are
//     indistinguishable to the pilots and form a class.
//  2. Verification phase: for every pair of classes, measure one
//     representative pair plus a deterministic set of probe pairs (the
//     block's corners and seeded interior picks).
//  3. Fill or fall back: if every probe agrees with the representative,
//     the remaining pairs of the block take its value; any disagreement
//     falls back to measuring the block exhaustively. Same-class
//     (diagonal) blocks are always exhaustive — SMT siblings share
//     signatures, so same-core pairs hide inside classes where probes
//     could not catch them.
//
// Exhaustive-equality: every measured pair goes through the same
// measureForked path as the exhaustive mode, and a fork's noise stream
// depends only on (seed, x, y) — measured values are byte-identical by
// construction, regardless of which other pairs were measured. Filled
// values are exact on noise-free generated platforms, where a pair's median
// is a pure function of its latency level. Platforms with per-measurement
// jitter or deterministic in-level spread (all five golden machines) are
// detected up front — their pilot medians do not form exact plateaus — and
// fall back to measuring everything, trading the speedup for exactness.
// The equality is property-tested against the exhaustive mode on the golden
// five and on generated mesh/ring/circulant platforms (sampled_test.go).
package mctopalg

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// The sampled mode's fixed parameters. Every sampled topology key records
// them (registry.TopoKey); Options.floor lowers the floor inside this
// package only.
const (
	// samplingFloor is the context count below which inference stays
	// exhaustive: under it the pilot phase would measure most pairs anyway.
	samplingFloor = 64
	// verifyPerBlock is the number of probe pairs measured per class-pair
	// block on top of the representative. Higher values widen the net for
	// irregular platforms at the cost of speedup.
	verifyPerBlock = 6
)

// pilotCount is the pilot-set size for n contexts: n/64 clamped to [8, 64],
// and never more than n.
func pilotCount(n int) int {
	return min(max(n/64, 8), 64, n)
}

// noiseGapMin is the plateau-separation rule of the noise gate: on a
// noise-free platform, distinct pilot-phase medians belong to distinct
// latency levels and sit at least one interconnect-hop step apart (67+
// cycles on generated platforms); two distinct medians this close or
// closer are measurement jitter or in-level spread, and the whole run
// falls back to exhaustive measurement.
const noiseGapMin = 8

// measureSampled is collectTable's sampled plan: it fills
// res.RawTable measuring only a subset of pairs (see the package comment
// above), every measured wave through c.measure. An unmeasured entry is 0
// until filled; measured medians are always >= 1.
func (c *collector) measureSampled(n int) error {
	ctx, res := c.ctx, c.res
	res.Sampled = true

	// Phase 1: pilots. Evenly spaced pilot contexts, every pair touching
	// one of them, in canonical (x, y) order. Each phase below is one span
	// on a traced request — never one per pair; the measurement hot loop
	// stays allocation-free.
	_, pilotSpan := trace.Start(ctx, "infer.pilots")
	k := pilotCount(n)
	stride := n / k
	pilots := make([]int, k)
	isPilot := make([]bool, n)
	for i := range pilots {
		pilots[i] = i * stride
		isPilot[i*stride] = true
	}
	wave1 := make([]ctxPair, 0, k*n)
	for x := 0; x < n-1; x++ {
		if isPilot[x] {
			for y := x + 1; y < n; y++ {
				wave1 = append(wave1, ctxPair{x, y})
			}
		} else {
			for _, p := range pilots {
				if p > x {
					wave1 = append(wave1, ctxPair{x, p})
				}
			}
		}
	}
	pilotSpan.SetInt("pilots", int64(k))
	pilotSpan.SetInt("pairs", int64(len(wave1)))
	if err := c.measure(wave1); err != nil {
		pilotSpan.SetError(err)
		pilotSpan.End()
		return err
	}
	pilotSpan.End()

	// Classes: non-pilot contexts grouped by their latency signature to the
	// pilots. Pilot contexts are fully measured already and join no class.
	_, classSpan := trace.Start(ctx, "infer.classify")
	classIdx := map[string]int{}
	var classes [][]int
	var sigb strings.Builder
	for x := 0; x < n; x++ {
		if isPilot[x] {
			continue
		}
		sigb.Reset()
		for _, p := range pilots {
			sigb.WriteString(strconv.FormatInt(res.RawTable[x][p], 10))
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

	// Noise gate: exact plateaus only. Any two distinct pilot medians
	// closer than noiseGapMin mean in-level spread, so class fills would
	// not be exact — measure everything instead.
	distinct := make([]int64, 0, 64)
	seen := map[int64]bool{}
	for _, p := range wave1 {
		if v := res.RawTable[p.x][p.y]; !seen[v] {
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
	classSpan.SetInt("classes", int64(len(classes)))
	classSpan.SetBool("noisy", noisy)
	classSpan.End()

	// Phase 2: per class-pair block, decide representative + probes, or
	// exhaustive fallback.
	_, verifySpan := trace.Start(ctx, "infer.verify")
	const V = verifyPerBlock
	type block struct {
		pairs    []ctxPair // unmeasured pairs, canonical order
		probeIdx []int     // indices into pairs measured for verification
	}
	var blocks []block
	var exhaustNow []ctxPair // diagonal, small, or noisy-run blocks
	for ci := 0; ci < len(classes); ci++ {
		for cj := ci; cj < len(classes); cj++ {
			var bp []ctxPair
			if ci == cj {
				members := classes[ci]
				bp = make([]ctxPair, 0, len(members)*(len(members)-1)/2)
				for i := 0; i < len(members)-1; i++ {
					for j := i + 1; j < len(members); j++ {
						bp = append(bp, ctxPair{members[i], members[j]})
					}
				}
			} else {
				bp = make([]ctxPair, 0, len(classes[ci])*len(classes[cj]))
				for _, a := range classes[ci] {
					for _, b := range classes[cj] {
						bp = append(bp, ctxPair{min(a, b), max(a, b)})
					}
				}
			}
			// The pairs are distinct, so this is the one (x, y) order.
			slices.SortFunc(bp, func(a, b ctxPair) int {
				if c := cmp.Compare(a.x, b.x); c != 0 {
					return c
				}
				return cmp.Compare(a.y, b.y)
			})
			if noisy || ci == cj || len(bp) <= V+1 {
				exhaustNow = append(exhaustNow, bp...)
				continue
			}
			blocks = append(blocks, block{pairs: bp, probeIdx: probeIndices(bp, V)})
		}
	}
	if noisy {
		res.FallbackBlocks = len(classes) * (len(classes) + 1) / 2
	}

	wave2 := append([]ctxPair(nil), exhaustNow...)
	for _, b := range blocks {
		for _, pi := range b.probeIdx {
			wave2 = append(wave2, b.pairs[pi])
		}
	}
	verifySpan.SetInt("pairs", int64(len(wave2)))
	verifySpan.SetInt("blocks", int64(len(blocks)))
	if err := c.measure(wave2); err != nil {
		verifySpan.SetError(err)
		verifySpan.End()
		return err
	}
	verifySpan.End()

	// Phase 3: fill verified blocks, exhaustively measure the rest.
	_, fillSpan := trace.Start(ctx, "infer.fill")
	var wave3 []ctxPair
	for _, b := range blocks {
		rep := res.RawTable[b.pairs[b.probeIdx[0]].x][b.pairs[b.probeIdx[0]].y]
		agree := true
		for _, pi := range b.probeIdx[1:] {
			if res.RawTable[b.pairs[pi].x][b.pairs[pi].y] != rep {
				agree = false
				break
			}
		}
		if !agree {
			res.FallbackBlocks++
			for _, p := range b.pairs {
				if res.RawTable[p.x][p.y] == 0 {
					wave3 = append(wave3, p)
				}
			}
			continue
		}
		for _, p := range b.pairs {
			if res.RawTable[p.x][p.y] == 0 {
				res.RawTable[p.x][p.y] = rep
				res.RawTable[p.y][p.x] = rep
				res.FilledPairs++
			}
		}
	}
	fillSpan.SetInt("filled", int64(res.FilledPairs))
	fillSpan.SetInt("fallback_blocks", int64(res.FallbackBlocks))
	if err := c.measure(wave3); err != nil {
		fillSpan.SetError(err)
		fillSpan.End()
		return err
	}
	fillSpan.End()

	// Every off-diagonal entry must now be measured or filled.
	for x := 0; x < n-1; x++ {
		for y := x + 1; y < n; y++ {
			if res.RawTable[x][y] == 0 {
				return fmt.Errorf("mctopalg: internal error: sampled measurement left pair (%d,%d) unset", x, y)
			}
		}
	}
	return nil
}

// probeIndices returns the verification probes of a block: its first and
// last pair (the corners of the sorted order) plus deterministic seeded
// interior picks, v+1 indices in total, ascending. The selection is a pure
// function of the block's pairs, so it is independent of measurement order
// and parallelism.
func probeIndices(bp []ctxPair, v int) []int {
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

// probeMix has SplitMix64's shape but not its last multiplier, so it is not
// internal/rng's Mix and cannot be replaced by it: its outputs choose the
// interior verification probes, i.e. which pairs are measured, and the
// exact ledger rows (pairs_measured, sim_cycles) are pinned to that choice.
func probeMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d49b133aa8ef4b
	return z ^ (z >> 31)
}
