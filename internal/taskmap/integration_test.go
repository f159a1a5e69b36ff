package taskmap

import (
	"context"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/place"
	"repro/internal/sim"
)

// TestBeatsPlacePoliciesOnCommBoundDAG is the tentpole integration test:
// on the comm-bound shuffle DAG exported from the Metis Word Count model,
// the taskmap assignment must achieve a strictly lower estimated
// completion time than round-robining the tasks over ANY builtin place
// policy's contexts. Latency-only placement picks good contexts but still
// spreads the shuffle across them; the mapper sees the edge volumes and
// co-locates the comm-heavy subgraphs.
func TestBeatsPlacePoliciesOnCommBoundDAG(t *testing.T) {
	tp := enriched(t, sim.Ivy())
	d, err := mapreduce.ExportDAG(mapreduce.WLWordCount, tp, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(context.Background(), tp, d, Options{RefineBudget: 5000})
	if err != nil {
		t.Fatal(err)
	}

	compared := 0
	for _, pol := range place.Policies() {
		pl, err := place.NewFrom(tp, pol, place.Options{NThreads: len(d.Nodes)})
		if err != nil {
			// Policies that cannot produce this thread count are not
			// placement competitors.
			continue
		}
		ctxs := pl.Contexts()
		if len(ctxs) == 0 {
			continue
		}
		valid := true
		for _, c := range ctxs {
			if c < 0 || c >= tp.NumHWContexts() {
				valid = false // None leaves threads unpinned (-1 slots)
				break
			}
		}
		if !valid {
			continue
		}
		assign := make([]int, len(d.Nodes))
		for i := range assign {
			assign[i] = ctxs[i%len(ctxs)]
		}
		cost, err := Estimate(tp, d, assign)
		if err != nil {
			t.Fatalf("%s: %v", pl.PolicyName(), err)
		}
		compared++
		if m.Cost() >= cost {
			t.Errorf("taskmap cost %d does not beat policy %s cost %d", m.Cost(), pl.PolicyName(), cost)
		}
	}
	if compared < 8 {
		t.Fatalf("only compared against %d policies, want at least 8", compared)
	}
}
