package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/mctoperr"
)

func mustGenerate(t *testing.T, spec GenSpec) *Platform {
	t.Helper()
	p, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate(%s): %v", spec.Name(), err)
	}
	return p
}

// genTestSpecs covers every kind, SMT on and off, custom generators, seeds
// and the noise flag.
func genTestSpecs() []GenSpec {
	return []GenSpec{
		{Kind: GenMesh, Sockets: 12, Cores: 4, SMT: 2},
		{Kind: GenMesh, Sockets: 7, Cores: 2, SMT: 1}, // prime: 1x7 line
		{Kind: GenRing, Sockets: 16, Cores: 8, SMT: 2, Seed: 7},
		{Kind: GenRing, Sockets: 2, Cores: 4, SMT: 1},
		{Kind: GenCirculant, Sockets: 64, Cores: 8, SMT: 2},
		{Kind: GenCirculant, Sockets: 20, Cores: 2, SMT: 2, Gens: []int{1, 4, 10}},
		{Kind: GenCirculant, Sockets: 8, Cores: 6, SMT: 1, Seed: 3, Noise: true},
	}
}

// TestGenerateDeterministic: the generator is a pure function of its spec —
// two runs produce byte-identical platforms.
func TestGenerateDeterministic(t *testing.T) {
	for _, spec := range genTestSpecs() {
		a := mustGenerate(t, spec)
		b := mustGenerate(t, spec)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations differ", spec.Name())
		}
		if sa, sb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); sa != sb {
			t.Errorf("%s: printed platforms differ:\n%s\nvs\n%s", spec.Name(), sa, sb)
		}
	}
}

// TestGenerateValidateSweep: every spec a seeded random sweep can produce
// generates a platform that passes Validate (Generate re-checks internally;
// this asserts no error across the space, including degenerate shapes).
func TestGenerateValidateSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	kinds := []GenKind{GenMesh, GenRing, GenCirculant}
	for i := 0; i < 200; i++ {
		spec := GenSpec{
			Kind:    kinds[rng.Intn(len(kinds))],
			Sockets: 1 + rng.Intn(48),
			Cores:   1 + rng.Intn(8),
			SMT:     1 + rng.Intn(4),
			Seed:    uint64(rng.Intn(3)),
			Noise:   rng.Intn(4) == 0,
		}
		if spec.Kind == GenCirculant && spec.Sockets >= 8 && rng.Intn(2) == 0 {
			spec.Gens = []int{1, 1 + rng.Intn(spec.Sockets/2)}
		}
		p, err := Generate(spec)
		if err != nil {
			t.Fatalf("sweep %d: Generate(%s): %v", i, spec.Name(), err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("sweep %d: Validate(%s): %v", i, spec.Name(), err)
		}
		if got := p.NumContexts(); got != spec.Sockets*spec.Cores*spec.SMT {
			t.Fatalf("sweep %d: %s: %d contexts", i, spec.Name(), got)
		}
	}
}

// TestGenerateLatencySanity: generated latencies are symmetric, zero only on
// the diagonal, and satisfy the triangle inequality — both at the socket
// matrix level and through PairLatency.
func TestGenerateLatencySanity(t *testing.T) {
	for _, spec := range []GenSpec{
		{Kind: GenMesh, Sockets: 12, Cores: 2, SMT: 1},
		{Kind: GenRing, Sockets: 10, Cores: 2, SMT: 2, Seed: 5},
		{Kind: GenCirculant, Sockets: 16, Cores: 2, SMT: 1},
	} {
		p := mustGenerate(t, spec)
		s := p.Sockets
		for a := 0; a < s; a++ {
			for b := 0; b < s; b++ {
				if (p.SocketLatMatrix[a][b] == 0) != (a == b) {
					t.Fatalf("%s: zero latency off-diagonal at (%d,%d)", p.Name, a, b)
				}
				if p.SocketLatMatrix[a][b] != p.SocketLatMatrix[b][a] {
					t.Fatalf("%s: asymmetric socket latency at (%d,%d)", p.Name, a, b)
				}
				for c := 0; c < s; c++ {
					if l, via := p.SocketLatMatrix[a][c], p.SocketLatMatrix[a][b]+p.SocketLatMatrix[b][c]; a != b && b != c && a != c && l > via {
						t.Fatalf("%s: triangle violation sockets %d-%d-%d: %d > %d", p.Name, a, b, c, l, via)
					}
				}
			}
		}
		n := p.NumContexts()
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if (p.PairLatency(x, y) == 0) != (x == y) {
					t.Fatalf("%s: zero pair latency at (%d,%d)", p.Name, x, y)
				}
				if p.PairLatency(x, y) != p.PairLatency(y, x) {
					t.Fatalf("%s: asymmetric pair latency at (%d,%d)", p.Name, x, y)
				}
			}
		}
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < n; z++ {
					if x == y || y == z || x == z {
						continue
					}
					if l, via := p.PairLatency(x, z), p.PairLatency(x, y)+p.PairLatency(y, z); l > via {
						t.Fatalf("%s: triangle violation contexts %d-%d-%d: %d > %d", p.Name, x, y, z, l, via)
					}
				}
			}
		}
	}
}

// TestParseGenNameRoundTrip: Name and ParseGenName invert each other, and
// malformed or non-canonical names are client errors.
func TestParseGenNameRoundTrip(t *testing.T) {
	for _, spec := range genTestSpecs() {
		got, err := ParseGenName(spec.Name())
		if err != nil {
			t.Fatalf("ParseGenName(%s): %v", spec.Name(), err)
		}
		if !reflect.DeepEqual(got, spec) {
			t.Fatalf("round trip of %s: got %+v want %+v", spec.Name(), got, spec)
		}
	}
	for _, bad := range []string{
		"gen:",
		"gen:torus:s4:c2:t1",           // unknown kind
		"gen:ring:s4:c2",               // missing SMT
		"gen:ring:s4:c2:tx",            // non-numeric
		"gen:ring:s4:c2:t1:q9",         // unknown field
		"gen:ring:s04:c2:t1",           // non-canonical int
		"gen:ring:s4:c2:t1:v0",         // non-canonical default seed
		"gen:mesh:s4:c2:t1:g1",         // generators on a non-circulant kind
		"gen:circulant:s8:c2:t1:g5",    // generator beyond s/2
		"gen:circulant:s8:c2:t1:g-1",   // negative generator splits the list
		"gen:ring:s4:c2:t1:g1",         // generators on a ring
		"gen:circulant:s8:c2:t1:g0",    // generator below 1
		"gen:circulant:s8:c2:t1:g2",    // disconnected: gcd(8, 2) = 2
		"gen:circulant:s12:c2:t1:g2-4", // disconnected: gcd(12, 2, 4) = 2
		"gen:ring:s-1:c2:t1",           // non-positive dimensions
		"gen:mesh:s1025:c1024:t1",      // over the generator cap
	} {
		if _, err := ParseGenName(bad); !errors.Is(err, mctoperr.ErrInvalidRequest) {
			t.Errorf("ParseGenName(%q): err %v, want ErrInvalidRequest", bad, err)
		}
	}
}

// TestParseAcceptsWhatGenerates: ParseGenName accepts a spec's name exactly
// when Generate builds the spec, over a sweep of kinds, dimensions and
// generator lists that covers every refusal, and both refuse with
// ErrInvalidRequest. Over-cap specs are refused before anything is built.
func TestParseAcceptsWhatGenerates(t *testing.T) {
	var specs []GenSpec
	for _, kind := range []GenKind{GenMesh, GenRing, GenCirculant, "torus"} {
		for _, sockets := range []int{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16} {
			for _, gens := range [][]int{nil, {1}, {0}, {2}, {3}, {4}, {5}, {8}, {1, 1}, {2, 4}, {2, 3}, {4, 6}, {3, 6}} {
				for _, shape := range [][2]int{{0, 1}, {1, 1}, {3, 2}} {
					specs = append(specs, GenSpec{Kind: kind, Sockets: sockets, Cores: shape[0], SMT: shape[1], Gens: gens})
				}
			}
		}
	}
	specs = append(specs,
		GenSpec{Kind: GenMesh, Sockets: 1025, Cores: 1024, SMT: 1},
		GenSpec{Kind: GenCirculant, Sockets: 1 << 31, Cores: 1 << 31, SMT: 4, Gens: []int{1}})
	accepted := 0
	for _, spec := range specs {
		name := spec.Name()
		parsed, perr := ParseGenName(name)
		p, gerr := Generate(spec)
		if (perr == nil) != (gerr == nil) {
			t.Fatalf("%s: ParseGenName says %v, Generate %v", name, perr, gerr)
		}
		if perr != nil {
			if !errors.Is(perr, mctoperr.ErrInvalidRequest) || !errors.Is(gerr, mctoperr.ErrInvalidRequest) {
				t.Fatalf("%s: refusals %v / %v, want ErrInvalidRequest", name, perr, gerr)
			}
			continue
		}
		accepted++
		if !reflect.DeepEqual(parsed, spec) || p.Name != name {
			t.Fatalf("%s: parsed %+v, generated %s", name, parsed, p.Name)
		}
	}
	if accepted == 0 || accepted == len(specs) {
		t.Fatalf("%d of %d specs accepted: the sweep does not split", accepted, len(specs))
	}
}

// TestGenMatrixCap: a name whose socket or core matrices would exceed the
// generator's byte cap is refused at parse time — with its parsed spec, so
// a caller can still size it — and every shape the tests, the benchmark
// and the roadmap name still parses. Nothing here is generated: an
// over-cap spec would allocate up to terabytes if it got past the check.
func TestGenMatrixCap(t *testing.T) {
	for _, name := range []string{
		"gen:ring:s1:c1048576:t1",   // 8.8 TB of Cores² intraOff
		"gen:ring:s1048576:c1:t1",   // 44 TB of Sockets² matrices
		"gen:ring:s4096:c1:t1",      // 671 MB
		"gen:mesh:s1:c8192:t1",      // 537 MB
		"gen:circulant:s3000:c1:t1", // 360 MB
	} {
		spec, err := ParseGenName(name)
		if !errors.Is(err, mctoperr.ErrInvalidRequest) || !strings.Contains(fmt.Sprint(err), "bytes of socket and core matrices") {
			t.Errorf("ParseGenName(%q): err %v, want the matrix cap's ErrInvalidRequest", name, err)
		}
		if spec.Name() != name {
			t.Errorf("ParseGenName(%q) refused without its spec (%+v)", name, spec)
		}
	}
	for _, name := range []string{
		"gen:ring:s2048:c1:t1",     // 168 MB, the largest socket count named
		"gen:mesh:s1024:c1024:t1",  // the context cap
		"gen:mesh:s512:c16:t2",     // 16384 contexts
		"gen:ring:s1:c4096:t1",     // 134 MB of intraOff
		"gen:ring:s1024:c1:t2",     // TestGenerateAllocs
		"gen:circulant:s160:c8:t2", // the largest circulant named
	} {
		if _, err := ParseGenName(name); err != nil {
			t.Errorf("ParseGenName(%q): %v", name, err)
		}
	}
}

// raceBuild is set by race_test.go in a -race build.
var raceBuild bool

// TestGenerateAllocs pins what generating a 1024-socket ring allocates: a
// BFS queue that grows on its pushes would add about a million. Collection
// stays off for the two builds measured (about 84 MB): a cycle the 42 MB
// build triggers adds one or two allocations of its own. A -race build
// only logs the count: there sync.Pool drops a random quarter of what is
// put back, so the printer GenSpec.Name takes from fmt's pool is now and
// then a new one, and the count reads 6164 (the printer and its buffer's
// two growths).
func TestGenerateAllocs(t *testing.T) {
	spec, err := ParseGenName("gen:ring:s1024:c1:t2")
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(1, func() {
		if _, err := Generate(spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Generate(%s): %v allocations", spec.Name(), got)
	if want := 6161.0; !raceBuild && got != want {
		t.Errorf("Generate(%s) allocates %v times, want %v", spec.Name(), got, want)
	}
}

// TestByNameGenerated: ByName resolves gen: specs like golden names, keeps
// rejecting unknown names, and flags malformed gen specs as client errors.
func TestByNameGenerated(t *testing.T) {
	name := "gen:ring:s4:c2:t2"
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != name || p.NumContexts() != 16 {
		t.Fatalf("ByName(%s) = %s with %d contexts", name, p.Name, p.NumContexts())
	}
	if _, err := ByName("Ivy"); err != nil {
		t.Fatalf("golden lookup broke: %v", err)
	}
	if _, err := ByName("NoSuch"); !errors.Is(err, mctoperr.ErrUnknownPlatform) {
		t.Fatalf("unknown name: err %v", err)
	}
	if _, err := ByName("gen:ring:sX:c2:t2"); !errors.Is(err, mctoperr.ErrInvalidRequest) {
		t.Fatalf("malformed gen spec: err %v", err)
	}
	if !strings.HasPrefix(name, GenPrefix) {
		t.Fatal("GenPrefix mismatch")
	}
}

// TestGenSpecNumContextsSaturates: the context count of a spec is read
// before anything is generated, and a product past math.MaxInt saturates
// instead of wrapping — 2³¹ × 2³¹ × 4 wraps to 0 in plain int arithmetic,
// which would pass every size bound and then allocate 2³¹ sockets.
func TestGenSpecNumContextsSaturates(t *testing.T) {
	for _, tc := range []struct {
		spec GenSpec
		want int
	}{
		{GenSpec{Kind: GenMesh, Sockets: 1024, Cores: 1024, SMT: 1}, 1 << 20},
		{GenSpec{Kind: GenCirculant, Sockets: 64, Cores: 8, SMT: 2}, 1024},
		{GenSpec{Kind: GenMesh, Sockets: 1 << 31, Cores: 1 << 31, SMT: 4}, math.MaxInt},
		{GenSpec{Kind: GenMesh, Sockets: math.MaxInt, Cores: 2, SMT: 1}, math.MaxInt},
		{GenSpec{Kind: GenRing, Sockets: -1, Cores: 4, SMT: 1}, 0},
	} {
		if got := tc.spec.NumContexts(); got != tc.want {
			t.Errorf("%s: NumContexts = %d, want %d", tc.spec.Name(), got, tc.want)
		}
	}
	wrap := GenSpec{Kind: GenMesh, Sockets: 1 << 31, Cores: 1 << 31, SMT: 4}
	if _, err := Generate(wrap); !errors.Is(err, mctoperr.ErrInvalidRequest) {
		t.Fatalf("Generate(%s): err %v, want the generator cap's ErrInvalidRequest", wrap.Name(), err)
	}
}
