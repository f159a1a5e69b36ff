package topo

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// randomSpec builds a random but structurally valid spec: S sockets x C
// cores x T SMT contexts, with 0–2 group levels between the core and the
// socket, plausible ascending latency levels and optional enrichment
// payloads — the generator behind the round-trip and construction property
// tests.
func randomSpec(rng *rand.Rand) Spec {
	sockets := rng.Intn(4) + 1
	cores := rng.Intn(8) + 1
	smt := 1
	if rng.Intn(2) == 1 {
		smt = rng.Intn(3) + 2 // 2..4
	}
	nCtx := sockets * cores * smt

	// groupsOf partitions the contexts into runs of size consecutive cores
	// of one socket; contexts are numbered consecutively per core.
	groupsOf := func(size int) [][]int {
		var groups [][]int
		for c0 := 0; c0 < sockets*cores; c0 += size {
			var g []int
			for ctx := c0 * smt; ctx < (c0+size)*smt; ctx++ {
				g = append(g, ctx)
			}
			groups = append(groups, g)
		}
		return groups
	}

	var levels []Level
	lat := int64(rng.Intn(30) + 20)
	level := func(name string, kind LevelKind, size int) {
		levels = append(levels, Level{
			Name: name, Kind: kind, Min: lat - 1, Median: lat, Max: lat + 1,
			Groups: groupsOf(size),
		})
		lat = lat*3/2 + int64(rng.Intn(40)) + 1
	}
	switch {
	case smt > 1 && cores == 1:
		// Degenerate machines where the socket is a single core: the
		// socket level must then be the first grouped level.
		level("socket", LevelSocket, 1)
	default:
		if smt > 1 {
			level("core", LevelGroup, 1)
		}
		// Each group level's size in cores divides the socket's cores and
		// is a multiple of the level below's.
		for size, k := 1, rng.Intn(3); k > 0; k-- {
			var sizes []int
			for d := size; d <= cores; d += size {
				if cores%d == 0 {
					sizes = append(sizes, d)
				}
			}
			size = sizes[rng.Intn(len(sizes))]
			level("group", LevelGroup, size)
		}
		level("socket", LevelSocket, cores)
	}
	cross := levelMedian(levels, LevelSocket)*3 + int64(rng.Intn(50))
	if sockets > 1 {
		levels = append(levels, Level{
			Name: "cross", Kind: LevelCross, Min: cross - 4, Median: cross, Max: cross + 4,
		})
	}
	sockLat := make([][]int64, sockets)
	for a := 0; a < sockets; a++ {
		sockLat[a] = make([]int64, sockets)
		for b := 0; b < sockets; b++ {
			if a == b {
				sockLat[a][b] = levelMedian(levels, LevelSocket)
			} else {
				sockLat[a][b] = cross
			}
		}
	}
	nodeOf := rng.Perm(sockets)

	spec := Spec{
		Name: "rand", Contexts: nCtx, Nodes: sockets, SMTWays: smt,
		FreqGHz: float64(rng.Intn(3)+1) + 0.5,
		Levels:  levels, NodeOfSocket: nodeOf, SocketLat: sockLat,
	}
	if rng.Intn(2) == 1 {
		spec.MemLat = make([][]int64, sockets)
		spec.MemBW = make([][]float64, sockets)
		for s := 0; s < sockets; s++ {
			spec.MemLat[s] = make([]int64, sockets)
			spec.MemBW[s] = make([]float64, sockets)
			for n := 0; n < sockets; n++ {
				spec.MemLat[s][n] = int64(200 + rng.Intn(400))
				spec.MemBW[s][n] = float64(rng.Intn(20) + 2)
			}
		}
		spec.StreamCoreBW = float64(rng.Intn(5) + 1)
	}
	if rng.Intn(3) == 0 {
		spec.Cache = &CacheInfo{LatL1: 4, LatL2: 12, LatLLC: 40,
			SizeL1: 32 << 10, SizeL2: 256 << 10, SizeLLC: 8 << 20}
	}
	return spec
}

func levelMedian(levels []Level, kind LevelKind) int64 {
	for _, l := range levels {
		if l.Kind == kind {
			return l.Median
		}
	}
	return 1
}

// Property: every randomly generated spec builds, and its description file
// round-trips to an identical spec.
func TestRandomSpecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		if _, err := FromSpec(spec); err != nil {
			t.Logf("seed %d: FromSpec: %v", seed, err)
			return false
		}
		var buf bytes.Buffer
		if err := Encode(&buf, &spec); err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(&spec, got) {
			t.Logf("seed %d: round-trip mismatch", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: on every random topology the structural queries agree with the
// generator's arithmetic and the latency index with the spec's latencies.
func TestRandomSpecQueries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		top, err := FromSpec(spec)
		if err != nil {
			return false
		}
		smt := spec.SMTWays
		cores := spec.Contexts / smt
		if top.NumCores() != cores {
			t.Logf("seed %d: cores = %d, want %d", seed, top.NumCores(), cores)
			return false
		}
		// GetLatency is symmetric and zero only on the diagonal.
		for trial := 0; trial < 20; trial++ {
			x := rng.Intn(spec.Contexts)
			y := rng.Intn(spec.Contexts)
			lx := top.GetLatency(x, y)
			if lx != top.GetLatency(y, x) {
				return false
			}
			if (x == y) != (lx == 0) {
				return false
			}
		}
		// The index answers every pair as the spec does, on every shape
		// the generator draws — single-core sockets and group levels with
		// and without SMT included.
		for x := 0; x < spec.Contexts; x++ {
			for y := 0; y < spec.Contexts; y++ {
				if got, want := top.GetLatency(x, y), specLatency(&spec, x, y); got != want {
					t.Logf("seed %d: GetLatency(%d, %d) = %d, spec = %d", seed, x, y, got, want)
					return false
				}
			}
		}
		// Walking the cores in order, socket by socket, visits every
		// context exactly once, each under its own core and socket.
		seen := make([]bool, spec.Contexts)
		prevSocket := 0
		for _, core := range top.Cores() {
			if core.Socket.ID < prevSocket {
				return false
			}
			prevSocket = core.Socket.ID
			for _, c := range core.Contexts {
				if seen[c.ID] || c.Core != core || c.Socket != core.Socket {
					return false
				}
				seen[c.ID] = true
			}
		}
		return !slices.Contains(seen, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
