package main

import (
	"fmt"
	"sort"
)

// rng is splitmix64: the benchmark's only source of randomness. Every
// consumer derives its own stream from (-seed, stream name), so adding a
// draw to one generator never shifts another's inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between draws uniformly from [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// dag is the benchmark's own task graph, in the JSON shape POST /v1/map
// accepts. Node weights are compute cycles, edge weights bytes.
type dag struct {
	Name  string    `json:"name"`
	Nodes []dagNode `json:"nodes"`
	Edges []dagEdge `json:"edges"`
}

type dagNode struct {
	ID   int   `json:"id"`
	Work int64 `json:"work"`
}

type dagEdge struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	Volume int64 `json:"volume"`
}

// DAG shape: every generated DAG has dagLayers x dagWidth = 48 nodes. The
// seed picks edges and weights, never the size, so two seeds give mapping
// work of the same magnitude and a metric may be compared across them.
const (
	dagLayers = 6
	dagWidth  = 8
)

// genDAG builds a layered DAG: each task is fed by one to three tasks of
// the previous layer (so it is acyclic and connected layer to layer by
// construction), edges in (from, to) order.
func genDAG(r *rng, name string) dag {
	d := dag{Name: name}
	for l := 0; l < dagLayers; l++ {
		for i := 0; i < dagWidth; i++ {
			to := l*dagWidth + i
			d.Nodes = append(d.Nodes, dagNode{ID: to, Work: int64(r.between(1_000, 200_000))})
			if l == 0 {
				continue
			}
			// Parents are a prefix of a permutation of the previous layer,
			// so no edge repeats.
			for _, p := range r.perm(dagWidth)[:r.between(1, 3)] {
				d.Edges = append(d.Edges, dagEdge{From: (l-1)*dagWidth + p, To: to, Volume: int64(r.between(64, 65_536))})
			}
		}
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		if d.Edges[i].From != d.Edges[j].From {
			return d.Edges[i].From < d.Edges[j].From
		}
		return d.Edges[i].To < d.Edges[j].To
	})
	return d
}

// placePolicies are the nine Table 2 policies that hand out exactly the
// requested number of distinct contexts on every golden platform: NONE
// pins nothing, POWER needs power data, RR_SCALE caps the thread count.
var placePolicies = []string{
	"SEQUENTIAL", "CON_HWC", "CON_CORE_HWC", "CON_CORE", "BALANCE_HWC",
	"BALANCE_CORE_HWC", "BALANCE_CORE", "RR_CORE", "RR_HWC",
}

const (
	kindTopology = iota
	kindPlacement
	kindMapping
)

// keySpec is one cacheable request: what the daemon workloads turn into
// URLs and bodies, and the ledger pass into in-process lookups.
type keySpec struct {
	Kind     int
	Platform string
	Seed     uint64
	Reps     int // 0 = the daemon default
	Sampling bool
	Policy   string
	Threads  int
	DAG      *dag
	Refine   int
}

func (k keySpec) String() string {
	switch k.Kind {
	case kindPlacement:
		return fmt.Sprintf("place %s/%d %s x%d", k.Platform, k.Seed, k.Policy, k.Threads)
	case kindMapping:
		return fmt.Sprintf("map %s/%d %s refine %d", k.Platform, k.Seed, k.DAG.Name, k.Refine)
	}
	return fmt.Sprintf("topology %s/%d", k.Platform, k.Seed)
}

// genKeys builds the working set of a daemon workload: per (platform,
// seed) one topology, nPolicies x nThreads placements and nDAGs mappings
// at refine 200, all choices seeded.
func genKeys(r *rng, platforms []string, seeds []uint64, reps, nPolicies, nThreads, nDAGs int, dags []dag) ([]keySpec, error) {
	var keys []keySpec
	for _, p := range platforms {
		contexts, cores, _, err := platformDims(p)
		if err != nil {
			return nil, err
		}
		for _, s := range seeds {
			keys = append(keys, keySpec{Kind: kindTopology, Platform: p, Seed: s, Reps: reps})
			pols := r.perm(len(placePolicies))[:nPolicies]
			// Thread counts are stratified from 2 up to the core count with
			// a seeded jitter of 0..2: seeds differ in which counts they ask
			// for, not in how large the answers are.
			threads := make([]int, nThreads)
			for i := range threads {
				threads[i] = min(2+(cores-2)*i/max(nThreads-1, 1)+r.intn(3), contexts)
			}
			for _, pi := range pols {
				for _, n := range threads {
					keys = append(keys, keySpec{Kind: kindPlacement, Platform: p, Seed: s, Reps: reps, Policy: placePolicies[pi], Threads: n})
				}
			}
			for _, di := range r.perm(len(dags))[:nDAGs] {
				keys = append(keys, keySpec{Kind: kindMapping, Platform: p, Seed: s, Reps: reps, DAG: &dags[di], Refine: 200})
			}
		}
	}
	return keys, nil
}

func genDAGs(r *rng, n int) []dag {
	dags := make([]dag, n)
	for i := range dags {
		dags[i] = genDAG(r, fmt.Sprintf("bench-%d", i))
	}
	return dags
}
