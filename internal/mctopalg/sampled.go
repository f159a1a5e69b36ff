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
// A block's pairs are never listed: a block is its two classes, whose
// members are ascending, and its pairs are walked in (x, y) order straight
// off them (classBlock.rows). The probes are chosen from the block's size
// and its first pair, and phase 3 walks the blocks again to fill or fall
// back. What is allocated is the table and the lists of pairs measured.
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
	"fmt"
	"slices"
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

// ctxPair is one (x, y) context pair, x < y, of a sampled wave.
type ctxPair struct{ x, y int32 }

// measureList measures one wave listed pair by pair.
func (c *collector) measureList(wave []ctxPair) error {
	return c.measure(len(wave), func(i int) (int, int) { return int(wave[i].x), int(wave[i].y) })
}

// classBlock is the block of classes a and b (ascending context lists):
// the pairs of a member of a and one of b, or, when same, the pairs of two
// members of a.
type classBlock struct {
	a, b []int
	same bool
}

// size is the number of pairs in the block.
func (bl classBlock) size() int {
	if bl.same {
		return len(bl.a) * (len(bl.a) - 1) / 2
	}
	return len(bl.a) * len(bl.b)
}

// first is the block's first pair in (x, y) order: its two smallest
// members.
func (bl classBlock) first() ctxPair {
	if bl.same {
		return ctxPair{int32(bl.a[0]), int32(bl.a[1])}
	}
	return ctxPair{int32(min(bl.a[0], bl.b[0])), int32(max(bl.a[0], bl.b[0]))}
}

// rows calls fn(x, ys) for every row of the block in (x, y) order — the
// order a sort of the block's pairs gives — where ys are the ascending
// partners y > x of x. The rows of a class-pair block are a merge of the
// two classes: a member of either pairs with the members of the other
// above it.
func (bl classBlock) rows(fn func(x int, ys []int)) {
	a, b := bl.a, bl.b
	if bl.same {
		for i, x := range a {
			fn(x, a[i+1:])
		}
		return
	}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && a[i] < b[j]) {
			fn(a[i], b[j:])
			i++
		} else {
			fn(b[j], a[i:])
			j++
		}
	}
}

// appendPairs appends the block's pairs whose sorted index is listed in
// idx (ascending) to dst, in that order.
func (bl classBlock) appendPairs(dst []ctxPair, idx []int) []ctxPair {
	k, row := 0, 0 // row is the sorted index of the current row's first pair
	bl.rows(func(x int, ys []int) {
		for k < len(idx) && idx[k] < row+len(ys) {
			dst = append(dst, ctxPair{int32(x), int32(ys[idx[k]-row])})
			k++
		}
		row += len(ys)
	})
	return dst
}

// measureSampled is collectTable's sampled plan: it fills
// res.RawTable measuring only a subset of pairs (see the package comment
// above), every measured wave through c.measure. An unmeasured entry is 0
// until filled; measured medians are always >= 1.
func (c *collector) measureSampled(n int) error {
	ctx, res := c.ctx, c.res
	tab := res.RawTable
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
				wave1 = append(wave1, ctxPair{int32(x), int32(y)})
			}
		} else {
			for _, p := range pilots {
				if p > x {
					wave1 = append(wave1, ctxPair{int32(x), int32(p)})
				}
			}
		}
	}
	pilotSpan.SetInt("pilots", int64(k))
	pilotSpan.SetInt("pairs", int64(len(wave1)))
	if err := c.measureList(wave1); err != nil {
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

	// Noise gate: exact plateaus only. Any two distinct pilot medians
	// closer than noiseGapMin mean in-level spread, so class fills would
	// not be exact — measure everything instead.
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
	classSpan.SetInt("classes", int64(len(classes)))
	classSpan.SetBool("noisy", noisy)
	classSpan.End()

	// Phase 2: every class-pair block, in class order, is measured
	// exhaustively now — a diagonal block, a block too small to verify,
	// every block of a noisy run — or verified: its probes are measured
	// after every exhaustive block, in block order.
	_, verifySpan := trace.Start(ctx, "infer.verify")
	const V = verifyPerBlock
	block := func(ci, cj int) classBlock {
		return classBlock{a: classes[ci], b: classes[cj], same: ci == cj}
	}
	var verified [][2]int // the (ci, cj) of each verified block
	var wave2 []ctxPair
	for ci := range classes {
		for cj := ci; cj < len(classes); cj++ {
			bl := block(ci, cj)
			if noisy || bl.same || bl.size() <= V+1 {
				bl.rows(func(x int, ys []int) {
					for _, y := range ys {
						wave2 = append(wave2, ctxPair{int32(x), int32(y)})
					}
				})
				continue
			}
			verified = append(verified, [2]int{ci, cj})
		}
	}
	if noisy {
		res.FallbackBlocks = len(classes) * (len(classes) + 1) / 2
	}
	probesAt := len(wave2)
	var idx [V + 1]int
	for _, b := range verified {
		bl := block(b[0], b[1])
		wave2 = bl.appendPairs(wave2, probeIndices(idx[:0], bl.size(), bl.first()))
	}
	verifySpan.SetInt("pairs", int64(len(wave2)))
	verifySpan.SetInt("blocks", int64(len(verified)))
	if err := c.measureList(wave2); err != nil {
		verifySpan.SetError(err)
		verifySpan.End()
		return err
	}
	verifySpan.End()

	// Phase 3: fill verified blocks, exhaustively measure the rest. A
	// verified block has more than V+1 pairs, so exactly V+1 probes, and
	// its unmeasured pairs are those its probes left at 0.
	_, fillSpan := trace.Start(ctx, "infer.fill")
	var wave3 []ctxPair
	for bi, b := range verified {
		probes := wave2[probesAt+bi*(V+1) : probesAt+(bi+1)*(V+1)]
		rep := tab[probes[0].x][probes[0].y]
		agree := true
		for _, p := range probes[1:] {
			if tab[p.x][p.y] != rep {
				agree = false
				break
			}
		}
		if !agree {
			res.FallbackBlocks++
		}
		block(b[0], b[1]).rows(func(x int, ys []int) {
			row := tab[x]
			for _, y := range ys {
				switch {
				case row[y] != 0:
				case agree:
					row[y], tab[y][x] = rep, rep
					res.FilledPairs++
				default:
					wave3 = append(wave3, ctxPair{int32(x), int32(y)})
				}
			}
		})
	}
	fillSpan.SetInt("filled", int64(res.FilledPairs))
	fillSpan.SetInt("fallback_blocks", int64(res.FallbackBlocks))
	if err := c.measureList(wave3); err != nil {
		fillSpan.SetError(err)
		fillSpan.End()
		return err
	}
	fillSpan.End()

	// Every off-diagonal entry must now be measured or filled.
	for x := 0; x < n-1; x++ {
		for y := x + 1; y < n; y++ {
			if tab[x][y] == 0 {
				return fmt.Errorf("mctopalg: internal error: sampled measurement left pair (%d,%d) unset", x, y)
			}
		}
	}
	return nil
}

// probeIndices appends to dst the verification probes of a block of size
// pairs whose first pair in (x, y) order is first: its first and last pair
// (the corners of the sorted order) plus deterministic seeded interior
// picks, v+1 indices in total (v = verifyPerBlock), ascending. The
// selection is a pure function of the block, so it is independent of
// measurement order and parallelism.
func probeIndices(dst []int, size int, first ctxPair) []int {
	idx := append(dst, 0, size-1)
	h := uint64(first.x)<<32 | uint64(first.y)
	for len(idx) < verifyPerBlock+1 && len(idx) < size {
		h = probeMix(h)
		cand := int(h % uint64(size))
		if !slices.Contains(idx, cand) {
			idx = append(idx, cand)
		}
	}
	slices.Sort(idx)
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
