package mctopalg

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/sim"
)

// rawTableHash is the FNV-1a of a latency table's n×n entries, row-major
// and the diagonal included, each as eight little-endian bytes.
func rawTableHash(tab Table) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for x := 0; x < tab.N(); x++ {
		for y := 0; y < tab.N(); y++ {
			binary.LittleEndian.PutUint64(b[:], uint64(tab.At(x, y)))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestInferCountersPinned pins what the simulator's cost model makes of an
// inference, exactly: the simulated cycle count, the pairs measured, the
// retries, the parent's rdtsc estimate and every entry of the raw latency
// table. These are pure functions of (platform, seed, options) — the RNG
// call sequence, every clock advance and every burn — so making the
// simulator *cheaper to run* must not move one of them. The constants were
// recorded at the commit before the table-driven hot path landed; a change
// that moves them has changed the model, and says so by editing this table
// in the same diff. Never regenerate them to make a speed-up pass.
func TestInferCountersPinned(t *testing.T) {
	for _, c := range []struct {
		platform string
		sampled  bool

		cycles        int64
		pairs         int
		retries       int
		rdtscOverhead int64
		tableHash     uint64
		filledPairs   int
		fallback      int
	}{
		{"Ivy", false, 7523192334, 780, 156, 24, 0xe53855cccc3c5829, 0, 0},
		{"Opteron", false, 3432215413, 1128, 108, 30, 0xaa7867359d8a5019, 0, 0},
		{"SPARC", false, 100786804730, 32640, 7382, 34, 0x340015f72956fe81, 0, 0},
		{"gen:mesh:s16:c16:t2", true, 40319499560, 13272, 0, 20, 0x8dbb42fc7bce6325, 117544, 0},
		// The other two frequency-ramping platforms, recorded at the commit
		// before the simulator ran Figure 5's rounds itself.
		{"Westmere", false, 149139933416, 12720, 2812, 28, 0xf45131aa1ae17fe9, 0, 0},
		{"Haswell", false, 49777182727, 4560, 1003, 24, 0x8ae0fa5db4ab5da5, 0, 0},
	} {
		t.Run(c.platform, func(t *testing.T) {
			p, err := sim.ByName(c.platform)
			if err != nil {
				t.Fatal(err)
			}
			opt := testOptions()
			opt.Sampling = c.sampled
			res := inferWith(t, p, 1, opt)
			if res.Sampled != c.sampled {
				t.Fatalf("Sampled = %v, want %v", res.Sampled, c.sampled)
			}
			if res.Cycles != c.cycles || res.Pairs != c.pairs || res.Retries != c.retries || res.RdtscOverhead != c.rdtscOverhead {
				t.Errorf("cycles/pairs/retries/rdtsc = %d/%d/%d/%d, pinned %d/%d/%d/%d",
					res.Cycles, res.Pairs, res.Retries, res.RdtscOverhead, c.cycles, c.pairs, c.retries, c.rdtscOverhead)
			}
			if res.FilledPairs != c.filledPairs || res.FallbackBlocks != c.fallback {
				t.Errorf("filled/fallback = %d/%d, pinned %d/%d", res.FilledPairs, res.FallbackBlocks, c.filledPairs, c.fallback)
			}
			if h := rawTableHash(res.RawTable); h != c.tableHash {
				t.Errorf("raw table hash = %#x, pinned %#x", h, c.tableHash)
			}
		})
	}
}
