// Synthetic large-platform generator.
//
// The five golden platforms top out at 256 hardware contexts; the ROADMAP's
// north star needs machines two orders of magnitude larger to exercise the
// scale path (sampled inference, daemon size guards, fleet warm-up). This
// file generates parametric mesh, ring and multiplicative-circulant
// interconnects — the regular structures of large NoC designs — as ordinary
// Platforms: valid under Validate, usable as machine.Forker machines, and
// addressable by name everywhere a golden platform is (registry keys, the
// daemon, the CLIs) via the "gen:" prefix understood by ByName.
//
// Generated platforms are noise-free by default: every per-pair latency is
// a pure function of the pair's relation (same core / same socket / hop
// distance), which is what makes the sampled inference mode's class fills
// exact. Pass Noise to generate a golden-style noisy machine instead (the
// sampled mode then detects the jitter and falls back to exhaustive
// measurement).
package sim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mctoperr"
	"repro/internal/rng"
)

// GenPrefix starts the name of every generated platform.
const GenPrefix = "gen:"

// GenKind selects the cross-socket interconnect of a generated platform.
type GenKind string

const (
	// GenMesh arranges sockets in a 2-D grid (rows x cols chosen as the
	// most square factorization) with 4-neighbor links and no wraparound.
	GenMesh GenKind = "mesh"
	// GenRing connects socket i to socket (i+1) mod Sockets.
	GenRing GenKind = "ring"
	// GenCirculant is the circulant graph C(Sockets; g1, g2, ...): socket i
	// links to i +/- g mod Sockets for each generator g. The default
	// generator set is multiplicative (1, q, q^2, ... with q=3), the
	// low-diameter family of the circulant-NoC literature.
	GenCirculant GenKind = "circulant"
)

// Latency/memory constants of generated platforms. One interconnect hop
// costs genHopLat cycles on top of the base cross-socket latency; the step
// is large enough that adjacent hop-count plateaus never fall inside one
// clustering gap at small distances, and merging at large distances is
// harmless (the levels stay ascending).
const (
	genSameCoreLat  = 30
	genIntraLat     = 110
	genCrossBaseLat = 300
	genHopLat       = 90
	genMemLocalLat  = 300
	genMemHop0Lat   = 420
	genMemHopLat    = 60
)

// genMaxContexts bounds a single generated platform (the daemon has its own
// request-time -max-contexts guard; this is the hard library-level sanity
// cap).
const genMaxContexts = 1 << 20

// genMaxMatrixBytes bounds the matrices a generated platform is built
// with: Generate and the simulator's tables allocate five Sockets×Sockets
// matrices of 8-byte words (SocketLatMatrix, SocketHopMatrix, MemLat, MemBW
// and tables.socketLat) and one Cores×Cores (tables.intraOff). Under the
// context cap alone, gen:ring:s1:c1048576:t1 would ask for 8.8 TB of
// intraOff. The bound admits gen:ring:s2048:c1:t1 (168 MB) and
// gen:mesh:s1024:c1024:t1 (48 MB).
const genMaxMatrixBytes = 256 << 20

// GenSpec parametrizes one synthetic platform. The zero value is invalid;
// Kind, Sockets, Cores and SMT are required.
type GenSpec struct {
	Kind    GenKind
	Sockets int
	Cores   int // per socket
	SMT     int // contexts per core (1 = no SMT)

	// Gens are the circulant generators (GenCirculant only). Empty means
	// the multiplicative default 1, 3, 9, ... < Sockets/2.
	Gens []int

	// Seed adds a deterministic per-hop-distance latency jitter so two
	// specs differing only by seed are distinguishable platforms. 0 means
	// the plain distance-linear latencies.
	Seed uint64

	// Noise enables the golden platforms' noise model (per-measurement
	// jitter + spurious outliers). Generated platforms default to
	// noise-free, which is what makes sampled inference exact on them.
	Noise bool
}

// Name returns the canonical "gen:" name of the spec; ParseGenName inverts
// it. Two specs with the same canonical name generate identical platforms.
func (g GenSpec) Name() string {
	var b strings.Builder
	b.WriteString(GenPrefix)
	b.WriteString(string(g.Kind))
	fmt.Fprintf(&b, ":s%d:c%d:t%d", g.Sockets, g.Cores, g.SMT)
	if len(g.Gens) > 0 {
		b.WriteString(":g")
		for i, gen := range g.Gens {
			if i > 0 {
				b.WriteByte('-')
			}
			b.WriteString(strconv.Itoa(gen))
		}
	}
	if g.Seed != 0 {
		fmt.Fprintf(&b, ":v%d", g.Seed)
	}
	if g.Noise {
		b.WriteString(":n1")
	}
	return b.String()
}

// NumContexts is the spec's hardware context count, Sockets × Cores × SMT,
// read before anything is generated. The product saturates at
// math.MaxInt instead of overflowing, so a huge spec can never wrap to a
// count that passes a bound; a non-positive dimension gives 0.
func (g GenSpec) NumContexts() int {
	n := 1
	for _, d := range [...]int{g.Sockets, g.Cores, g.SMT} {
		if d < 1 {
			return 0
		}
		if n > math.MaxInt/d {
			return math.MaxInt
		}
		n *= d
	}
	return n
}

// ParseGenName parses a canonical generated-platform name, e.g.
// "gen:ring:s16:c8:t2", "gen:circulant:s64:c8:t2:g1-9:v7:n1", and accepts
// exactly the names Generate builds. Refusals wrap
// mctoperr.ErrInvalidRequest (a client error, not an unknown platform). A
// well-formed name that Generate would refuse (over the generator cap, a
// disconnected circulant) still returns its parsed spec with the error, so
// a caller can size the spec before it reports the refusal.
func ParseGenName(name string) (GenSpec, error) {
	bad := func(format string, args ...any) (GenSpec, error) {
		return GenSpec{}, fmt.Errorf("sim: %w: bad gen spec %q: %s",
			mctoperr.ErrInvalidRequest, name, fmt.Sprintf(format, args...))
	}
	rest, ok := strings.CutPrefix(name, GenPrefix)
	if !ok {
		return bad("missing %q prefix", GenPrefix)
	}
	parts := strings.Split(rest, ":")
	if len(parts) < 4 {
		return bad("want gen:<kind>:s<sockets>:c<cores>:t<smt>[:g...][:v...][:n1]")
	}
	spec := GenSpec{Kind: GenKind(parts[0])}
	switch spec.Kind {
	case GenMesh, GenRing, GenCirculant:
	default:
		return bad("unknown kind %q", parts[0])
	}
	intField := func(s string, tag byte) (int, error) {
		if len(s) < 2 || s[0] != tag {
			return 0, fmt.Errorf("want %c<int>, got %q", tag, s)
		}
		return strconv.Atoi(s[1:])
	}
	var err error
	if spec.Sockets, err = intField(parts[1], 's'); err != nil {
		return bad("%v", err)
	}
	if spec.Cores, err = intField(parts[2], 'c'); err != nil {
		return bad("%v", err)
	}
	if spec.SMT, err = intField(parts[3], 't'); err != nil {
		return bad("%v", err)
	}
	for _, part := range parts[4:] {
		if len(part) < 2 {
			return bad("empty field %q", part)
		}
		switch part[0] {
		case 'g':
			for _, s := range strings.Split(part[1:], "-") {
				gen, err := strconv.Atoi(s)
				if err != nil {
					return bad("bad generator %q", s)
				}
				spec.Gens = append(spec.Gens, gen)
			}
		case 'v':
			if spec.Seed, err = strconv.ParseUint(part[1:], 10, 64); err != nil {
				return bad("bad seed %q", part[1:])
			}
		case 'n':
			if part != "n1" {
				return bad("noise field must be n1, got %q", part)
			}
			spec.Noise = true
		default:
			return bad("unknown field %q", part)
		}
	}
	if got := spec.Name(); got != name {
		return bad("not canonical (canonical spelling is %q)", got)
	}
	return spec, spec.check()
}

// check decides whether a parsed spec names a platform. It is the one such
// decision: ParseGenName and Generate both run it, so a name parses exactly
// when it generates. It refuses an unknown kind, non-positive dimensions,
// more than genMaxContexts contexts, matrices of more than
// genMaxMatrixBytes, generators on a mesh or a ring, a
// generator outside [1, Sockets/2], and a disconnected circulant — one whose
// sockets and generators share a divisor, so that socket 0 reaches only
// their multiples and never socket 1.
func (g GenSpec) check() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("sim: %w: gen spec %q: %s",
			mctoperr.ErrInvalidRequest, g.Name(), fmt.Sprintf(format, args...))
	}
	switch g.Kind {
	case GenMesh, GenRing, GenCirculant:
	default:
		return bad("unknown kind")
	}
	if g.Sockets < 1 || g.Cores < 1 || g.SMT < 1 {
		return bad("non-positive dimensions %dx%dx%d", g.Sockets, g.Cores, g.SMT)
	}
	if n := g.NumContexts(); n > genMaxContexts {
		return bad("%d contexts exceeds the generator cap %d", n, genMaxContexts)
	}
	// Under the context cap each dimension is at most 2²⁰, so this cannot
	// overflow.
	if b := 8 * (5*g.Sockets*g.Sockets + g.Cores*g.Cores); b > genMaxMatrixBytes {
		return bad("%d bytes of socket and core matrices exceeds the generator cap %d", b, genMaxMatrixBytes)
	}
	if g.Kind != GenCirculant {
		if len(g.Gens) > 0 {
			return bad("generators are circulant-only")
		}
		return nil
	}
	div := g.Sockets
	for _, gen := range g.Gens {
		if gen < 1 || gen > g.Sockets/2 {
			return bad("generator %d out of range [1, %d]", gen, g.Sockets/2)
		}
		for gen != 0 {
			div, gen = gen, div%gen
		}
	}
	if len(g.Gens) > 0 && div > 1 {
		return bad("sockets 0 and 1 are disconnected")
	}
	return nil
}

// Generate builds the platform described by spec, which ParseGenName
// would accept (the same check refuses the rest). The result is
// deterministic (same spec, byte-identical platform), passes Validate, and
// carries the SocketLatMatrix/SocketHopMatrix every platform describes its
// interconnect with, here from a BFS over the mesh, ring or circulant,
// whose diameter routinely exceeds the golden machines' 2.
func Generate(spec GenSpec) (*Platform, error) {
	if err := spec.check(); err != nil {
		return nil, err
	}
	hops, diameter := hopMatrix(genAdjacency(spec))

	// Latency per hop count: linear in the distance plus an optional
	// seeded per-distance jitter small enough to keep the plateaus
	// strictly increasing (min inter-plateau gap genHopLat - 24 cycles).
	latOf := make([]int64, diameter+1)
	for d := 1; d <= diameter; d++ {
		latOf[d] = genCrossBaseLat + genHopLat*int64(d-1)
		if spec.Seed != 0 {
			latOf[d] += int64(rng.Mix(spec.Seed+uint64(d)) % 24)
		}
	}

	s := spec.Sockets
	latMat := make([][]int64, s)
	for a := 0; a < s; a++ {
		latMat[a] = make([]int64, s)
		for b := 0; b < s; b++ {
			if a != b {
				latMat[a][b] = latOf[hops[a][b]]
			}
		}
	}

	p := &Platform{
		Name: spec.Name(), Sockets: s, Cores: spec.Cores, SMT: spec.SMT,
		Numbering:  NumberingConsecutive,
		FreqMinGHz: 2.0, FreqMaxGHz: 2.0, DVFS: false,
		RdtscOverhead: 20,
		L1Size:        32 << 10, L2Size: 256 << 10, LLCSize: 16 << 20,
		L1Lat: 4, L2Lat: 12, LLCLat: 40, HitCASLat: 12,
		SameCoreLat:    genSameCoreLat,
		IntraSocketLat: genIntraLat,
		CoreStreamBW:   4.0,
		// Deterministic SMT dilation is part of the machine model, not the
		// noise model: detection needs it even on noise-free platforms.
		SMTSlowdown:     1.9,
		SocketLatMatrix: latMat,
		SocketHopMatrix: hops,
	}

	// Memory: one node per socket, local strictly fastest, remote cost
	// linear in hop distance.
	p.MemLat = make([][]int64, s)
	p.MemBW = make([][]float64, s)
	for a := 0; a < s; a++ {
		p.MemLat[a] = make([]int64, s)
		p.MemBW[a] = make([]float64, s)
		for b := 0; b < s; b++ {
			if a == b {
				p.MemLat[a][b] = genMemLocalLat
				p.MemBW[a][b] = 12.0
				continue
			}
			d := int64(hops[a][b])
			p.MemLat[a][b] = genMemHop0Lat + genMemHopLat*(d-1)
			bw := 12.0 / float64(d+1)
			if bw < 1.0 {
				bw = 1.0
			}
			p.MemBW[a][b] = bw
		}
	}

	if spec.Noise {
		defaultNoise(p)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: generated platform invalid: %w", err)
	}
	return p, nil
}

// genAdjacency returns the socket adjacency lists of a checked spec's
// interconnect, each list sorted ascending.
func genAdjacency(spec GenSpec) [][]int {
	s := spec.Sockets
	adj := make([][]int, s)
	link := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	switch spec.Kind {
	case GenMesh:
		rows, cols := meshFactor(s)
		at := func(r, c int) int { return r*cols + c }
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					link(at(r, c), at(r, c+1))
				}
				if r+1 < rows {
					link(at(r, c), at(r+1, c))
				}
			}
		}
	case GenRing:
		if s == 2 {
			link(0, 1)
			break
		}
		for a := 0; a < s; a++ {
			link(a, (a+1)%s)
		}
	case GenCirculant:
		gens := spec.Gens
		if len(gens) == 0 && s > 1 {
			// Multiplicative default: powers of 3 up to half the cycle.
			for g := 1; g <= s/2; g *= 3 {
				gens = append(gens, g)
			}
		}
		seen := map[int]bool{}
		for _, g := range gens {
			if seen[g] {
				continue
			}
			seen[g] = true
			// The chords {a, a+g} for a in [0, s) each appear once, except
			// when g == s/2: then a and a+g name the same chord twice.
			m := s
			if 2*g == s {
				m = s / 2
			}
			for a := 0; a < m; a++ {
				link(a, (a+g)%s)
			}
		}
	}
	for a := range adj {
		sort.Ints(adj[a])
		adj[a] = dedupSorted(adj[a])
	}
	return adj
}

func dedupSorted(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// meshFactor returns the most square rows x cols factorization of n
// (rows <= cols); a prime n degenerates to a 1 x n line, which is still a
// valid mesh.
func meshFactor(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

// hopMatrix runs a BFS from every socket and returns the all-pairs hop
// matrix plus the interconnect diameter. A checked spec's interconnect is
// connected; were it not, an unreached pair would stay at -1 and fail
// Validate. The queue is one slice with a head index: every socket enters
// it at most once per BFS.
func hopMatrix(adj [][]int) (hops [][]int, diameter int) {
	s := len(adj)
	hops = make([][]int, s)
	queue := make([]int, s)
	for from := 0; from < s; from++ {
		dist := make([]int, s)
		for i := range dist {
			dist[i] = -1
		}
		dist[from] = 0
		queue[0] = from
		for head, tail := 0, 1; head < tail; head++ {
			a := queue[head]
			for _, b := range adj[a] {
				if dist[b] < 0 {
					dist[b] = dist[a] + 1
					diameter = max(diameter, dist[b])
					queue[tail] = b
					tail++
				}
			}
		}
		hops[from] = dist
	}
	return hops, diameter
}
