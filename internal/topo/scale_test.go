package topo

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// treeSpec builds a valid spec of sockets × coresPerSocket × smt contexts
// with one grouped level per entry of groupCores between the core and the
// socket: groupCores lists each level's group size in cores, ascending, each
// dividing the next and coresPerSocket. Context ids interleave everything,
// (smt, core, socket) from the slowest-varying, so no group is a range of
// ids; with smt 1 the cores are synthesized. Socket pairs get distinct
// latencies, so a wrong socket-matrix entry shows.
func treeSpec(name string, sockets, coresPerSocket, smt int, groupCores []int) Spec {
	n := sockets * coresPerSocket * smt
	ctx := func(s, c, t int) int { return (t*coresPerSocket+c)*sockets + s }
	// group collects the contexts of cores [c0, c0+size) of socket s.
	group := func(s, c0, size int) []int {
		var g []int
		for c := c0; c < c0+size; c++ {
			for t := 0; t < smt; t++ {
				g = append(g, ctx(s, c, t))
			}
		}
		return g
	}
	level := func(name string, kind LevelKind, lat int64, size int) Level {
		l := Level{Name: name, Kind: kind, Min: lat - 2, Median: lat, Max: lat + 2}
		for s := 0; s < sockets; s++ {
			for c := 0; c < coresPerSocket; c += size {
				l.Groups = append(l.Groups, group(s, c, size))
			}
		}
		return l
	}
	var levels []Level
	lat := int64(20)
	if smt > 1 {
		levels = append(levels, level("core", LevelGroup, lat, 1))
		lat += 30
	}
	for _, size := range groupCores {
		levels = append(levels, level("group", LevelGroup, lat, size))
		lat += 30
	}
	levels = append(levels, level("socket", LevelSocket, lat, coresPerSocket))
	spec := Spec{
		Name: name, Contexts: n, Nodes: sockets, SMTWays: smt,
		Levels:       levels,
		NodeOfSocket: make([]int, sockets),
		SocketLat:    make([][]int64, sockets),
	}
	cross := lat + 100
	for a := range spec.SocketLat {
		spec.NodeOfSocket[a] = a
		spec.SocketLat[a] = make([]int64, sockets)
		for b := range spec.SocketLat[a] {
			spec.SocketLat[a][b] = cross + int64(7*(a+b)+a*b%5)
		}
		spec.SocketLat[a][a] = lat
	}
	if sockets > 1 {
		spec.Levels = append(spec.Levels, Level{Name: "cross", Kind: LevelCross,
			Min: cross, Median: cross + 50, Max: cross + 1000})
	}
	return spec
}

// TestIndexMemoryIsLinear builds the index of two 8192-context machines and
// bounds what the build allocates at 64 bytes a context plus a word per
// socket pair. The second shape has 1024 cores a socket, so even a
// per-socket cores×cores table would blow the bound.
func TestIndexMemoryIsLinear(t *testing.T) {
	for _, shape := range []struct{ sockets, cores int }{{16, 256}, {4, 1024}} {
		top, err := FromSpec(treeSpec("scale", shape.sockets, shape.cores, 2, nil))
		if err != nil {
			t.Fatal(err)
		}
		n, s := top.NumHWContexts(), top.NumSockets()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		top.index()
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*n+8*s*s); got > limit {
			t.Errorf("%d sockets x %d cores: the index build allocates %d bytes, want <= %d", s, shape.cores, got, limit)
		}

		rng := rand.New(rand.NewSource(int64(n + s)))
		for i := 0; i < 10000; i++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if got, want := top.GetLatency(x, y), specLatency(&top.spec, x, y); got != want {
				t.Fatalf("%d sockets: GetLatency(%d, %d) = %d, spec = %d", s, x, y, got, want)
			}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if got, want := top.Occupancy(all).MaxLatency(), top.maxLatencyScan(); got != want {
			t.Errorf("%d sockets: full-machine Occupancy.MaxLatency = %d, scan = %d", s, got, want)
		}
	}
}

// TestFromSpecAllocs pins what one FromSpec build allocates on each decoded
// golden fixture, on a 64-socket synthetic spec and on one with two group
// levels and no SMT, so a structure no query reads cannot creep back into
// the build.
func TestFromSpecAllocs(t *testing.T) {
	specs := map[string]Spec{
		"tree-s64":    treeSpec("tree-s64", 64, 4, 2, nil),
		"tree-groups": treeSpec("tree-groups", 8, 12, 1, []int{3, 6}),
	}
	for _, name := range []string{"ivy", "westmere", "haswell", "opteron", "sparc"} {
		f, err := os.Open(filepath.Join("testdata", name+".mctop"))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		specs[name] = *spec
	}
	want := map[string]float64{
		"ivy": 94, "westmere": 352, "haswell": 212, "opteron": 127, "sparc": 340,
		"tree-s64": 1224, "tree-groups": 225,
	}
	for name, spec := range specs {
		got := testing.AllocsPerRun(20, func() {
			if _, err := FromSpec(spec); err != nil {
				t.Fatal(err)
			}
		})
		if got != want[name] {
			t.Errorf("%s: FromSpec allocates %v times, want %v", name, got, want[name])
		}
	}
}
