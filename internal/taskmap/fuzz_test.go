package taskmap

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topo"
)

// mapInput derives a mapping problem from raw bytes, reading them in
// order (0 once they run out):
//
//   - the DAG: 1–12 nodes, each of 0–3 cycles of work, and for every pair
//     i < j one byte, whose low bit puts an edge i→j in the DAG; one edge
//     in four of those carries 1–64 bytes, the rest none;
//   - the candidates: every context when the next byte is even, else that
//     byte's upper bits + 1 contexts, one byte each (taken modulo the
//     context count; repeats are dropped), so subsets split sockets;
//   - the refine budget: the next byte times 4 (0–1020).
//
// The edges come in (From, To) order. The bytes left over are returned.
func mapInput(data []byte, nCtx int) (*graph.TaskDAG, Options, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%12
	d := &graph.TaskDAG{Name: "fuzz"}
	for v := 0; v < n; v++ {
		d.Nodes = append(d.Nodes, graph.TaskNode{ID: v, Work: int64(next() % 4)})
	}
	for from := 0; from < n; from++ {
		for to := from + 1; to < n; to++ {
			b := next()
			if b&1 == 0 {
				continue
			}
			var vol int64
			if b&6 == 0 {
				vol = 1 + int64(b>>3)%CacheLine
			}
			d.Edges = append(d.Edges, graph.TaskEdge{From: from, To: to, Volume: vol})
		}
	}
	var opt Options
	if b := next(); b&1 == 1 {
		seen := make(map[int]bool)
		for k := b >> 1; k >= 0; k-- {
			if c := next() % nCtx; !seen[c] {
				seen[c] = true
				opt.Ctxs = append(opt.Ctxs, c)
			}
		}
	}
	opt.RefineBudget = 4 * next()
	return d, opt, data
}

// FuzzMapMatchesReference: on Ivy and an inferred 128-context circulant,
// Map returns exactly the pre-change mapper's assignment and cost
// (refMap) for any DAG, candidate subset and budget the bytes give
// (mapInput). The first byte picks the topology. Its named seeds are in
// testdata/fuzz/FuzzMapMatchesReference.
func FuzzMapMatchesReference(f *testing.F) {
	p, err := sim.ByName("gen:circulant:s16:c4:t2")
	if err != nil {
		f.Fatal(err)
	}
	tops := []*topo.Topology{loadGolden(f, "ivy.mctop"), enriched(f, p)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		top := tops[int(data[0])%len(tops)]
		d, opt, _ := mapInput(data[1:], top.NumHWContexts())
		ctx := context.Background()
		got, err := Map(ctx, top, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMap(ctx, top, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost() != want.Cost() || !reflect.DeepEqual(got.Assignment(), want.Assignment()) {
			t.Fatalf("%s (%d nodes, %d edges, candidates %v, budget %d):\n got cost %d %v\nwant cost %d %v",
				top.Name(), len(d.Nodes), len(d.Edges), opt.Ctxs, opt.RefineBudget,
				got.Cost(), got.Assignment(), want.Cost(), want.Assignment())
		}
	})
}

// FuzzRefineMatchesReference: refine climbs from any incumbent to exactly
// the pre-change climb's assignment and cost (refRefine). The first byte
// picks the topology as in FuzzMapMatchesReference, mapInput reads the
// DAG, candidates and budget, and one byte per task after them picks its
// incumbent context among the candidates (modulo their count). Map only
// ever starts refine from greedy's answer; a fuzzed incumbent leaves many
// moves and swaps to accept over several rounds, which is where a stale
// memo of rejected twins shows. Its named seeds are in
// testdata/fuzz/FuzzRefineMatchesReference:
//
//   - ivy-stale-twin is TestRefineMatchesReference's instance of that
//     name; a memo kept across an accepted move ends at cost 5, not 3.
//   - ivy-stale-after-swap is that test's ivy-stale-after-swap DAG with
//     its tasks renumbered in a topological order (mapInput only makes
//     edges i→j with i < j), at budget 40; a memo kept across an accepted
//     swap ends at a different assignment of the same cost.
func FuzzRefineMatchesReference(f *testing.F) {
	p, err := sim.ByName("gen:circulant:s16:c4:t2")
	if err != nil {
		f.Fatal(err)
	}
	tops := []*topo.Topology{loadGolden(f, "ivy.mctop"), enriched(f, p)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		top := tops[int(data[0])%len(tops)]
		d, opt, rest := mapInput(data[1:], top.NumHWContexts())
		ctxs, err := candidates(top, opt)
		if err != nil {
			t.Fatal(err)
		}
		start := make([]int, len(d.Nodes))
		for v := range start {
			var b int
			if v < len(rest) {
				b = int(rest[v])
			}
			start[v] = ctxs[b%len(ctxs)]
		}
		checkRefine(t, top.Name(), top, d, ctxs, start, opt.RefineBudget)
	})
}
