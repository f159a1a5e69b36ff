// Package graph provides the graph-analytics substrate for the OpenMP
// evaluation of Section 7.4 of the MCTOP paper: a CSR graph representation,
// a deterministic synthetic power-law graph generator (standing in for the
// paper's 100M-node/800M-edge datasets, scaled down), and parallel
// implementations of the Green-Marl workloads — PageRank, Communities
// (label propagation), Hop Distance (BFS), Potential Friends and Random
// Degree Sampling.
package graph

import (
	"fmt"
	"sync"

	"repro/internal/rng"
)

// Graph is a compact CSR (compressed sparse row) directed graph; for the
// kernels below edges are treated as undirected when noted.
type Graph struct {
	N    int
	Offs []int32 // N+1 offsets into Adj
	Adj  []int32
}

// Degree returns a node's out-degree.
func (g *Graph) Degree(v int) int {
	return int(g.Offs[v+1] - g.Offs[v])
}

// Neighbors returns a node's adjacency slice (do not modify).
func (g *Graph) Neighbors(v int) []int32 {
	return g.Adj[g.Offs[v]:g.Offs[v+1]]
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Adj) }

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	if len(g.Offs) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d for %d nodes", len(g.Offs), g.N)
	}
	if g.Offs[0] != 0 || int(g.Offs[g.N]) != len(g.Adj) {
		return fmt.Errorf("graph: offset bounds corrupt")
	}
	for v := 0; v < g.N; v++ {
		if g.Offs[v] > g.Offs[v+1] {
			return fmt.Errorf("graph: negative degree at %d", v)
		}
	}
	for _, w := range g.Adj {
		if w < 0 || int(w) >= g.N {
			return fmt.Errorf("graph: edge to invalid node %d", w)
		}
	}
	return nil
}

// GenPowerLaw builds a deterministic scale-free-ish graph with n nodes and
// roughly avgDeg edges per node: half the endpoints are drawn uniformly,
// half preferentially toward low node ids (a Zipf-like skew), mimicking the
// degree distribution of social graphs. Self-loops are skipped.
func GenPowerLaw(n, avgDeg int, seed uint64) *Graph {
	if n < 1 {
		n = 1
	}
	if avgDeg < 1 {
		avgDeg = 1
	}
	adjLists := make([][]int32, n)
	ctr := seed
	next := func() uint64 {
		ctr++
		return rng.Mix(ctr * rng.Increment)
	}
	for v := 0; v < n; v++ {
		deg := avgDeg
		// Hubs: the first ~1% of nodes get 8x degree.
		if v < n/100+1 {
			deg *= 8
		}
		for e := 0; e < deg; e++ {
			var w int
			r := next()
			if r&1 == 0 {
				w = int(r % uint64(n))
			} else {
				// Preferential: squash toward low ids.
				u := float64(r%1_000_000) / 1_000_000
				w = int(u * u * float64(n))
			}
			if w == v || w >= n {
				continue
			}
			adjLists[v] = append(adjLists[v], int32(w))
		}
	}
	g := &Graph{N: n, Offs: make([]int32, n+1)}
	total := 0
	for v, l := range adjLists {
		total += len(l)
		g.Offs[v+1] = int32(total)
	}
	g.Adj = make([]int32, 0, total)
	for _, l := range adjLists {
		g.Adj = append(g.Adj, l...)
	}
	return g
}

// parallelNodes runs body over [0, n) split across workers.
func parallelNodes(n, workers int, body func(lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// PageRank runs the classic damped power iteration and returns the ranks.
func PageRank(g *Graph, iters int, damping float64, workers int) []float64 {
	n := g.N
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		// Contribution push via pull: next[v] = sum over in-edges — with CSR
		// out-edges we accumulate per-worker partials to stay race-free.
		parts := make([][]float64, workers)
		parallelWorkers(workers, func(w int) {
			part := make([]float64, n)
			lo := w * n / workers
			hi := (w + 1) * n / workers
			for v := lo; v < hi; v++ {
				deg := g.Degree(v)
				if deg == 0 {
					continue
				}
				share := rank[v] / float64(deg)
				for _, u := range g.Neighbors(v) {
					part[u] += share
				}
			}
			parts[w] = part
		})
		base := (1 - damping) / float64(n)
		parallelNodes(n, workers, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				var s float64
				for _, p := range parts {
					if p != nil {
						s += p[v]
					}
				}
				next[v] = base + damping*s
			}
		})
		rank, next = next, rank
	}
	return rank
}

func parallelWorkers(workers int, body func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
}

// HopDistance computes BFS hop counts from src (-1 for unreachable),
// level-synchronous and parallel per level.
func HopDistance(g *Graph, src, workers int) []int32 {
	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N {
		return dist
	}
	dist[src] = 0
	frontier := []int32{int32(src)}
	level := int32(0)
	for len(frontier) > 0 {
		level++
		// Workers only read dist and collect candidates; the (sequential)
		// dedup phase below is the only writer — race-free by phases.
		nexts := make([][]int32, workers)
		parallelWorkers(workers, func(w int) {
			var local []int32
			lo := w * len(frontier) / workers
			hi := (w + 1) * len(frontier) / workers
			for _, v := range frontier[lo:hi] {
				for _, u := range g.Neighbors(int(v)) {
					if dist[u] == -1 {
						local = append(local, u)
					}
				}
			}
			nexts[w] = local
		})
		frontier = frontier[:0]
		for _, l := range nexts {
			for _, u := range l {
				if dist[u] == -1 {
					dist[u] = level
					frontier = append(frontier, u)
				}
			}
		}
	}
	return dist
}

// Communities runs synchronous label propagation for the given number of
// rounds and returns the final label of every node (initial label = id).
func Communities(g *Graph, rounds, workers int) []int32 {
	labels := make([]int32, g.N)
	for i := range labels {
		labels[i] = int32(i)
	}
	next := make([]int32, g.N)
	for r := 0; r < rounds; r++ {
		parallelNodes(g.N, workers, func(lo, hi int) {
			counts := map[int32]int{}
			for v := lo; v < hi; v++ {
				ns := g.Neighbors(v)
				if len(ns) == 0 {
					next[v] = labels[v]
					continue
				}
				for k := range counts {
					delete(counts, k)
				}
				for _, u := range ns {
					counts[labels[u]]++
				}
				best, bestN := labels[v], 0
				for l, c := range counts {
					if c > bestN || (c == bestN && l < best) {
						best, bestN = l, c
					}
				}
				next[v] = best
			}
		})
		labels, next = next, labels
	}
	return labels
}

// PotentialFriends counts, for every node, its two-hop neighbours that are
// not already direct neighbours (capped per node to bound the quadratic
// blow-up on hubs) — the friend-recommendation kernel.
func PotentialFriends(g *Graph, capPerNode, workers int) []int32 {
	out := make([]int32, g.N)
	parallelNodes(g.N, workers, func(lo, hi int) {
		direct := map[int32]bool{}
		cand := map[int32]bool{}
		for v := lo; v < hi; v++ {
			for k := range direct {
				delete(direct, k)
			}
			for k := range cand {
				delete(cand, k)
			}
			for _, u := range g.Neighbors(v) {
				direct[u] = true
			}
			count := 0
		scan:
			for _, u := range g.Neighbors(v) {
				for _, w := range g.Neighbors(int(u)) {
					if int(w) == v || direct[w] || cand[w] {
						continue
					}
					cand[w] = true
					count++
					if count >= capPerNode {
						break scan
					}
				}
			}
			out[v] = int32(count)
		}
	})
	return out
}

// RandDegreeSampling draws samples nodes with probability proportional to
// degree (edge-endpoint sampling) and returns the sampled ids —
// deterministic for a fixed seed.
func RandDegreeSampling(g *Graph, samples int, seed uint64, workers int) []int32 {
	out := make([]int32, samples)
	if len(g.Adj) == 0 {
		return out
	}
	parallelNodes(samples, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := rng.Mix(seed + uint64(i)*rng.Increment)
			// Picking a uniform edge endpoint == degree-proportional node.
			out[i] = g.Adj[r%uint64(len(g.Adj))]
		}
	})
	return out
}
