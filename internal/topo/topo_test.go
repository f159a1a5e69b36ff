package topo

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// ivySpec builds the spec MCTOP-ALG would produce on the paper's Ivy: 2
// sockets x 10 cores x 2 SMT contexts with Intel-halves numbering, levels
// 28 (core) / 112 (socket) / 308 (cross).
func ivySpec() Spec {
	nCores := 20
	coreGroups := make([][]int, nCores)
	for c := 0; c < nCores; c++ {
		coreGroups[c] = []int{c, c + nCores}
	}
	sockGroups := make([][]int, 2)
	for s := 0; s < 2; s++ {
		for c := 0; c < 10; c++ {
			core := s*10 + c
			sockGroups[s] = append(sockGroups[s], core, core+nCores)
		}
	}
	return Spec{
		Name: "Ivy", Contexts: 40, Nodes: 2, SMTWays: 2, FreqGHz: 2.8,
		Levels: []Level{
			{Name: "core", Kind: LevelGroup, Min: 27, Median: 28, Max: 29, Groups: coreGroups},
			{Name: "socket", Kind: LevelSocket, Min: 96, Median: 112, Max: 128, Groups: sockGroups},
			{Name: "cross-1", Kind: LevelCross, Min: 300, Median: 308, Max: 316},
		},
		NodeOfSocket: []int{0, 1},
		SocketLat:    [][]int64{{112, 308}, {308, 112}},
		SocketBW:     [][]float64{{0, 16}, {16, 0}},
		MemLat:       [][]int64{{280, 430}, {430, 280}},
		MemBW:        [][]float64{{15.9, 7.5}, {12.0, 8.37}},
		Cache:        &CacheInfo{LatL1: 4, LatL2: 12, LatLLC: 42, SizeL1: 32 << 10, SizeL2: 256 << 10, SizeLLC: 25 << 20},
		Power: &PowerInfo{
			Idle: 40, Full: 110.1, FirstCtx: 3.2, SecondCtx: 1.46,
			PerSocketBase: 20.1, PerFirstCtx: 3.2, PerExtraCtx: 1.46, DRAM: 45.25,
		},
	}
}

// opteronSpec builds an 8-socket, 6-core, no-SMT spec with three cross
// levels (197 / 217 / 300) like the paper's Opteron.
func opteronSpec() Spec {
	sockGroups := make([][]int, 8)
	for s := 0; s < 8; s++ {
		for c := 0; c < 6; c++ {
			sockGroups[s] = append(sockGroups[s], s*6+c)
		}
	}
	lat := make([][]int64, 8)
	direct := func(a, b int) bool {
		if a/2 == b/2 {
			return true
		}
		return a%2 == b%2
	}
	for a := 0; a < 8; a++ {
		lat[a] = make([]int64, 8)
		for b := 0; b < 8; b++ {
			switch {
			case a == b:
				lat[a][b] = 117
			case a/2 == b/2:
				lat[a][b] = 197
			case direct(a, b):
				lat[a][b] = 217
			default:
				lat[a][b] = 300
			}
		}
	}
	return Spec{
		Name: "Opteron", Contexts: 48, Nodes: 8, SMTWays: 1, FreqGHz: 2.1,
		Levels: []Level{
			{Name: "socket", Kind: LevelSocket, Min: 109, Median: 117, Max: 125, Groups: sockGroups},
			{Name: "mcm", Kind: LevelCross, Min: 194, Median: 197, Max: 200},
			{Name: "direct", Kind: LevelCross, Min: 214, Median: 217, Max: 220},
			{Name: "twohop", Kind: LevelCross, Min: 297, Median: 300, Max: 303},
		},
		NodeOfSocket: []int{0, 1, 2, 3, 4, 5, 6, 7},
		SocketLat:    lat,
	}
}

func TestFromSpecIvy(t *testing.T) {
	top, err := FromSpec(ivySpec())
	if err != nil {
		t.Fatal(err)
	}
	if top.NumHWContexts() != 40 || top.NumCores() != 20 || top.NumSockets() != 2 || top.NumNodes() != 2 {
		t.Fatalf("dims: %d/%d/%d/%d", top.NumHWContexts(), top.NumCores(), top.NumSockets(), top.NumNodes())
	}
	if !top.HasSMT() || top.SMTWays() != 2 {
		t.Error("Ivy should have 2-way SMT")
	}
	// Contexts 0 and 20 share a core; 0 and 1 don't.
	if top.Context(0).Core != top.Context(20).Core {
		t.Error("ctx 0 and 20 should share a core")
	}
	if top.Context(0).Core == top.Context(1).Core {
		t.Error("ctx 0 and 1 should not share a core")
	}
	// Socket membership.
	if top.Context(9).Socket.ID != 0 || top.Context(10).Socket.ID != 1 {
		t.Error("socket membership wrong")
	}
	if top.Context(29).Socket.ID != 0 || top.Context(30).Socket.ID != 1 {
		t.Error("second-half socket membership wrong")
	}
}

func TestGetLatency(t *testing.T) {
	top, err := FromSpec(ivySpec())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x, y int
		want int64
	}{
		{0, 0, 0},
		{0, 20, 28},  // same core
		{0, 1, 112},  // same socket
		{0, 10, 308}, // cross socket
		{25, 6, 112}, // same socket via second halves
	}
	for _, c := range cases {
		if got := top.GetLatency(c.x, c.y); got != c.want {
			t.Errorf("GetLatency(%d,%d) = %d, want %d", c.x, c.y, got, c.want)
		}
		if got := top.GetLatency(c.y, c.x); got != c.want {
			t.Errorf("GetLatency(%d,%d) not symmetric", c.y, c.x)
		}
	}
	if top.GetLatency(0, 99) != -1 {
		t.Error("out-of-range context should yield -1")
	}
}

func TestGetLocalNodeAndCores(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	if n := top.GetLocalNode(0); n == nil || n.ID != 0 {
		t.Errorf("local node of ctx 0 = %v", n)
	}
	if n := top.GetLocalNode(15); n == nil || n.ID != 1 {
		t.Errorf("local node of ctx 15 = %v", n)
	}
	cores := top.SocketGetCores(top.Socket(0))
	if len(cores) != 10 {
		t.Fatalf("socket 0 has %d cores", len(cores))
	}
	for _, c := range cores {
		if len(c.Contexts) != 2 {
			t.Errorf("core %d has %d contexts", c.ID, len(c.Contexts))
		}
	}
}

func TestNoSMTSynthesizedCores(t *testing.T) {
	top, err := FromSpec(opteronSpec())
	if err != nil {
		t.Fatal(err)
	}
	if top.HasSMT() {
		t.Error("Opteron has no SMT")
	}
	if top.NumCores() != 48 {
		t.Errorf("cores = %d, want 48 (one per context)", top.NumCores())
	}
	if top.GetLatency(0, 1) != 117 {
		t.Errorf("intra = %d", top.GetLatency(0, 1))
	}
	if top.GetLatency(0, 6) != 197 {
		t.Errorf("MCM pair = %d", top.GetLatency(0, 6))
	}
	if top.GetLatency(0, 12) != 217 {
		t.Errorf("direct = %d", top.GetLatency(0, 12))
	}
	if top.GetLatency(0, 18) != 300 {
		t.Errorf("two-hop = %d", top.GetLatency(0, 18))
	}
}

// TestNoSMTGroupLevels: without SMT the synthesized cores sit under the
// spec's group levels, and two contexts of one group communicate at that
// level's latency, not the socket's. In treeSpec's numbering context
// 2c+s is core c of socket s, and the level-0 groups are 4 cores each.
func TestNoSMTGroupLevels(t *testing.T) {
	top, err := FromSpec(treeSpec("groups-no-smt", 2, 12, 1, []int{4}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x, y int
		want int64
	}{
		{0, 2, 20},  // cores 0 and 1: one level-0 group
		{0, 6, 20},  // cores 0 and 3
		{0, 8, 50},  // cores 0 and 4: only the socket
		{0, 1, 157}, // socket 0 and socket 1: the socket matrix
	} {
		if got := top.GetLatency(tc.x, tc.y); got != tc.want {
			t.Errorf("GetLatency(%d, %d) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
	if got := top.MaxLatencyBetween([]int{0, 2, 4, 6}); got != 20 {
		t.Errorf("MaxLatencyBetween(one group) = %d, want 20", got)
	}
	if got := top.ContextsByLatencyFrom(0)[:3]; !reflect.DeepEqual(got, []int{2, 4, 6}) {
		t.Errorf("ContextsByLatencyFrom(0) starts %v, want its group [2 4 6]", got)
	}
}

// TestCrossSocketEdges: DotCrossSocket draws a socket pair exactly when its
// latency lies in the lowest cross level or in none. On the Opteron spec
// that is the MCM siblings; the 217- and 300-cycle pairs sit in the second
// and third cross levels and are annotated as 2 and 3 hops.
func TestCrossSocketEdges(t *testing.T) {
	spec := opteronSpec()
	top, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	dot := top.DotCrossSocket()
	for _, want := range []string{"s0 -- s1 ", "s6 -- s7 ", `(2 hops) 217 cy`, `(3 hops) 300 cy`} {
		if !strings.Contains(dot, want) {
			t.Errorf("cross-socket graph lacks %q:\n%s", want, dot)
		}
	}
	for _, unwanted := range []string{"s0 -- s2 ", "s0 -- s3 ", "s1 -- s2 "} {
		if strings.Contains(dot, unwanted) {
			t.Errorf("cross-socket graph draws %q, which is not in the lowest cross level:\n%s", unwanted, dot)
		}
	}
	if n := strings.Count(dot, " -- "); n != 4 {
		t.Errorf("%d edges drawn, want the 4 MCM pairs", n)
	}

	// A pair whose latency lies in no cross level is drawn too.
	spec.SocketLat[0][3], spec.SocketLat[3][0] = 250, 250
	top, err = FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dot := top.DotCrossSocket(); !strings.Contains(dot, `s0 -- s3 [label="250 cy`) {
		t.Errorf("a pair outside every cross level is not drawn:\n%s", dot)
	}
}

func TestMaxLatency(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	if got := top.MaxLatency(); got != 308 {
		t.Errorf("MaxLatency = %d", got)
	}
	if got := top.MaxLatencyBetween([]int{0, 1, 2}); got != 112 {
		t.Errorf("MaxLatencyBetween intra = %d", got)
	}
	if got := top.MaxLatencyBetween([]int{0, 20}); got != 28 {
		t.Errorf("MaxLatencyBetween core = %d", got)
	}
	if got := top.MaxLatencyBetween([]int{0, 1, 30}); got != 308 {
		t.Errorf("MaxLatencyBetween cross = %d", got)
	}
}

func TestSocketOrderings(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	byBW := top.SocketsByLocalBW()
	if byBW[0].ID != 0 || byBW[1].ID != 1 {
		t.Errorf("SocketsByLocalBW order: %d, %d", byBW[0].ID, byBW[1].ID)
	}
	a, b := top.MinLatencyPair()
	if a == nil || b == nil || a.ID == b.ID {
		t.Error("MinLatencyPair invalid")
	}
	a, b = top.MaxBWPair()
	if a == nil || b == nil {
		t.Error("MaxBWPair invalid")
	}

	opt, _ := FromSpec(opteronSpec())
	near := opt.SocketsByLatencyFrom(0)
	if near[0].ID != 1 {
		t.Errorf("closest socket to 0 = %d, want 1 (MCM sibling)", near[0].ID)
	}
	if near[len(near)-1].ID%2 == 0 {
		t.Errorf("farthest socket to 0 = %d, want an odd (two-hop) socket", near[len(near)-1].ID)
	}
}

func TestContextsByLatencyFrom(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	order := top.ContextsByLatencyFrom(0)
	if len(order) != 39 {
		t.Fatalf("got %d contexts", len(order))
	}
	if order[0] != 20 {
		t.Errorf("first victim = %d, want SMT sibling 20", order[0])
	}
	// All same-socket contexts come before any cross-socket one.
	crossSeen := false
	for _, id := range order {
		cross := top.Context(id).Socket.ID != 0
		if cross {
			crossSeen = true
		} else if crossSeen {
			t.Fatalf("same-socket context %d after a cross-socket one", id)
		}
	}
}

// TestTraversalOrder: the ordered slices are the traversal. A context's
// core lists it with its SMT sibling, and the cores, socket by socket,
// cover the machine once.
func TestTraversalOrder(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	if got := top.Context(0).Core.Contexts; len(got) != 2 || got[0].ID != 0 || got[1].ID != 20 {
		t.Errorf("ctx 0's core holds %v, want contexts 0 and 20", got)
	}
	seen := map[int]bool{}
	for i, core := range top.Cores() {
		if want := i / 10; core.Socket.ID != want {
			t.Errorf("core %d is on socket %d, want %d", i, core.Socket.ID, want)
		}
		for _, c := range core.Contexts {
			seen[c.ID] = true
		}
	}
	if len(seen) != 40 {
		t.Errorf("the cores cover %d contexts", len(seen))
	}
}

func TestPowerEstimate(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	var ctxs []int
	for c := 0; c < 10; c++ {
		ctxs = append(ctxs, c, c+20) // all of socket 0
	}
	for c := 10; c < 15; c++ {
		ctxs = append(ctxs, c, c+20) // half of socket 1
	}
	per, total := top.PowerEstimate(ctxs, false)
	if per[0] < 66.6 || per[0] > 66.8 || per[1] < 43.3 || per[1] > 43.5 {
		t.Errorf("per-socket = %.1f/%.1f, want 66.7/43.4", per[0], per[1])
	}
	if total < 110 || total > 110.2 {
		t.Errorf("total = %.1f", total)
	}
	// No power info: zero.
	opt, _ := FromSpec(opteronSpec())
	_, total = opt.PowerEstimate(ctxs, true)
	if total != 0 {
		t.Errorf("Opteron power = %g, want 0 (unavailable)", total)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []Spec{ivySpec(), opteronSpec()} {
		var buf bytes.Buffer
		if err := Encode(&buf, &spec); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(&spec, got) {
			t.Errorf("%s: round trip mismatch:\nin:  %+v\nout: %+v", spec.Name, spec, *got)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ivy.mct")
	top, _ := FromSpec(ivySpec())
	if err := SaveFile(path, top); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumHWContexts() != 40 || loaded.GetLatency(0, 20) != 28 {
		t.Error("loaded topology differs")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not mctop\n",
		"mctop 1\nname x\nbogus 4\nend\n",
		"mctop 1\nname x\nlevel 3 group a 1 2 3\nend\n",
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
}

// TestFrameRules: the one reader's header and end rules, a header-only
// read, and the writer's refusal of a value holding a line break.
func TestFrameRules(t *testing.T) {
	var buf bytes.Buffer
	spec := ivySpec()
	if err := EncodeKeyed(&buf, "k", &spec); err != nil {
		t.Fatal(err)
	}
	keyed := buf.String()
	bare := strings.TrimPrefix(keyed, "#key k\n")
	cases := []struct {
		name, in, key string
		ok            bool
	}{
		{"keyed", keyed, "k", true},
		{"bare", bare, "", true},
		{"comments and blank lines", "# by hand\n\n#key  k \n\n" +
			strings.Replace(bare, "\nend\n", "\n# a comment\nend\n\n# after end\n", 1), "k", true},
		{"two #key lines", "#key k\n" + keyed, "", false},
		{"an empty #key line", "#key \n" + bare, "", false},
		{"a directive after end", keyed + "name x\n", "", false},
		{"no end", strings.TrimSuffix(keyed, "end\n"), "", false},
		{"no magic line", "#key k\n", "", false},
	}
	for _, c := range cases {
		key, _, err := DecodeKeyed(strings.NewReader(c.in))
		if (err == nil) != c.ok || key != c.key {
			t.Errorf("%s: key %q, err %v", c.name, key, err)
		}
	}
	key, err := ReadFrame(strings.NewReader("#key k\nmctop 1\nnot a directive"), Magic, nil)
	if err != nil || key != "k" {
		t.Errorf("header-only read: key %q, err %v", key, err)
	}
	spec.Name = "x\nend"
	if err := Encode(&buf, &spec); err == nil {
		t.Error("Encode wrote a name holding a line break")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	mutate := func(f func(*Spec)) error {
		s := ivySpec()
		f(&s)
		_, err := FromSpec(s)
		return err
	}
	if err := mutate(func(s *Spec) { s.Levels[0].Groups[0] = []int{0, 0} }); err == nil {
		t.Error("duplicate context in group should fail")
	}
	if err := mutate(func(s *Spec) { s.Levels[0].Groups[0] = []int{0, 99} }); err == nil {
		t.Error("out-of-range context should fail")
	}
	if err := mutate(func(s *Spec) {
		// Straddle: put ctx 0's core across two sockets.
		s.Levels[1].Groups[0][0] = 10
		s.Levels[1].Groups[1][0] = 0
	}); err == nil {
		t.Error("core straddling sockets should fail")
	}
	if err := mutate(func(s *Spec) { s.SocketLat[0][1] = 999 }); err == nil {
		t.Error("asymmetric socket latency should fail")
	}
	if err := mutate(func(s *Spec) { s.NodeOfSocket = []int{0, 0} }); err == nil {
		t.Error("node without socket should fail")
	}
	if err := mutate(func(s *Spec) { s.Levels[1].Kind = LevelGroup }); err == nil {
		t.Error("spec without socket level should fail")
	}
	if err := mutate(func(s *Spec) { s.Levels[2].Median = 50 }); err == nil {
		t.Error("non-ascending levels should fail")
	}
	if err := mutate(func(s *Spec) {
		s.Levels[0].Groups = s.Levels[0].Groups[:19]
	}); err == nil {
		t.Error("missing context should fail")
	}
	// The cores are level 0's groups of 2; placement would walk 4 ways.
	if err := mutate(func(s *Spec) { s.SMTWays = 4 }); err == nil || !strings.Contains(err.Error(), "smt 4") || !strings.Contains(err.Error(), "hold 2 contexts") {
		t.Errorf("smt the cores contradict: err = %v, want one naming smt 4 and cores of 2", err)
	}
}

// TestValidateRejectsNonFiniteFloats: a description file may spell NaN or
// Inf, and strconv.ParseFloat accepts both; the spec refuses them, naming
// the field, so no loaded topology is one its JSON view cannot carry.
func TestValidateRejectsNonFiniteFloats(t *testing.T) {
	golden, err := os.ReadFile("testdata/ivy.mctop")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Decode(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec(*spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field  string
		mutate func(*Spec)
	}{
		{"freq_ghz", func(s *Spec) { s.FreqGHz = math.NaN() }},
		{"stream_core_bw", func(s *Spec) { s.StreamCoreBW = math.NaN() }},
		{"mem_bw[1][0]", func(s *Spec) { s.MemBW[1][0] = math.Inf(1) }},
		{"socket_bw[0][1]", func(s *Spec) { s.SocketBW[0][1] = math.Inf(-1) }},
		{"power[7]", func(s *Spec) { s.Power.DRAM = math.NaN() }},
	} {
		s, err := Decode(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(s)
		if _, err := FromSpec(*s); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: FromSpec error %v, want one naming the field", tc.field, err)
		}
	}
	// The same through the file format: a spelled-out NaN decodes but
	// does not build.
	nan := regexp.MustCompile(`(?m)^stream_core_bw .*$`).ReplaceAll(golden, []byte("stream_core_bw NaN"))
	if bytes.Equal(nan, golden) {
		t.Fatal("golden has no stream_core_bw line")
	}
	s, err := Decode(bytes.NewReader(nan))
	if err != nil {
		t.Fatalf("a NaN field should decode (FromSpec refuses it): %v", err)
	}
	if _, err := FromSpec(*s); err == nil {
		t.Error("a description file with stream_core_bw NaN built a topology")
	}
}

func TestDotOutputs(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	intra := top.DotIntraSocket(0)
	if !strings.Contains(intra, "Socket 0 - 112 cycles") {
		t.Error("intra graph missing socket label")
	}
	if !strings.Contains(intra, "Node 0") || !strings.Contains(intra, "Node 1") {
		t.Error("intra graph missing nodes")
	}
	if !strings.Contains(intra, "gray80") {
		t.Error("intra graph should shade the local node")
	}
	cross := top.DotCrossSocket()
	if !strings.Contains(cross, "s0 -- s1") {
		t.Error("cross graph missing link")
	}
	if !strings.Contains(cross, "308 cy") {
		t.Error("cross graph missing latency label")
	}
	opt, _ := FromSpec(opteronSpec())
	crossOpt := opt.DotCrossSocket()
	if !strings.Contains(crossOpt, "lvl 3") {
		t.Errorf("Opteron cross graph should note the non-direct level:\n%s", crossOpt)
	}
	if top.DotIntraSocket(99) != "" {
		t.Error("invalid socket should render empty")
	}
}

func TestStringSummary(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	s := top.String()
	for _, want := range []string{"MCTOP Ivy", "40 contexts", "2 sockets", "socket latencies"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestCompareOSAgreement(t *testing.T) {
	top, _ := FromSpec(ivySpec())
	coreOf := make([]int, 40)
	sockOf := make([]int, 40)
	for c := 0; c < 40; c++ {
		coreOf[c] = c % 20
		sockOf[c] = (c % 20) / 10
	}
	diffs := top.CompareOS(coreOf, sockOf, []int{0, 1})
	if len(diffs) != 0 {
		t.Errorf("expected agreement, got %v", diffs)
	}
	// Wrong node mapping must be reported (the Opteron scenario).
	diffs = top.CompareOS(coreOf, sockOf, []int{1, 0})
	if len(diffs) != 1 || !strings.Contains(diffs[0], "node mapping") {
		t.Errorf("expected node-mapping divergence, got %v", diffs)
	}
	// Wrong core grouping must be reported.
	badCore := append([]int(nil), coreOf...)
	badCore[0] = 5
	diffs = top.CompareOS(badCore, sockOf, []int{0, 1})
	if len(diffs) == 0 {
		t.Error("expected core-grouping divergence")
	}
}
