package mctopalg

import "sort"

// Step 3 as it was before it read the raw table in place:
// buildComponentsReference threads a reduced table from level to level,
// and groupAtLatencyReference builds each level's reduced table, every
// cell the cluster median two groups communicate at. Kept verbatim but
// for the names (the last reduced table is returned as sockReduced), as
// the oracle that components_test.go holds buildComponents,
// groupAtLatency and step 4's socket matrix to.

// buildComponentsReference implements step 3: starting from singleton components,
// repeatedly merge components connected at the next latency level, checking
// the symmetry rules of Section 3.6, until components reach socket size
// (#contexts / #nodes). It reads table through the clusters (lk), so
// the raw table serves as step 2's normalized one. Returns the per-level
// partitions, the socket-level partition and the reduced socket-to-socket
// latency table. Every level's groups are ordered by their smallest context:
// the singletons start that way, and groupAtLatencyReference keeps it.
func buildComponentsReference(table [][]int64, lk *lookup, n, nodes int) (
	levels [][][]int, sockGroups [][]int, sockReduced [][]int64, err error) {

	if n%nodes != 0 {
		return nil, nil, nil, clusterErr("%d contexts not divisible by %d nodes", n, nodes)
	}
	ctxPerSocket := n / nodes
	if ctxPerSocket < 2 {
		return nil, nil, nil, clusterErr("sockets of %d context are not inferable", ctxPerSocket)
	}

	// components[i] = sorted ctx ids; table = reduced latency table.
	components := make([][]int, n)
	for i := range components {
		components[i] = []int{i}
	}

	clusters := lk.clusters
	for li := 0; li < len(clusters); li++ {
		if len(components[0]) == ctxPerSocket {
			break // socket level reached; remaining clusters are cross levels
		}
		if len(components[0]) > ctxPerSocket {
			return nil, nil, nil, clusterErr(
				"components grew to %d contexts, past socket size %d", len(components[0]), ctxPerSocket)
		}
		components, table, err = groupAtLatencyReference(components, table, lk, clusters[li].Median)
		if err != nil {
			return nil, nil, nil, err
		}
		levels = append(levels, components)
	}

	if len(components[0]) != ctxPerSocket {
		return nil, nil, nil, clusterErr(
			"no level yields socket-sized components (%d contexts per node); got %d",
			ctxPerSocket, len(components[0]))
	}
	return levels, components, table, nil
}

// groupAtLatencyReference merges components communicating at exactly lat and reduces
// the table, enforcing: every component joins exactly one group, groups are
// uniform in size, groups are internally complete at lat, and members of a
// group have identical latencies to every other group. Groups are numbered
// by their smallest component, and the reduced table holds cluster medians.
func groupAtLatencyReference(components [][]int, table [][]int64, lk *lookup, lat int64) ([][]int, [][]int64, error) {
	k := len(components)
	at := func(i, j int) int64 { return lk.medianOf(table[i][j]) }
	// Union-find over components connected at lat.
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if at(i, j) == lat {
				union(i, j)
			}
		}
	}
	// Number the groups in one ascending pass: a group's id is fixed when
	// its smallest component is met.
	groupOf := make([]int, k)
	for i := range groupOf {
		groupOf[i] = -1
	}
	var memberSets [][]int
	for i := 0; i < k; i++ {
		r := find(i)
		if groupOf[r] < 0 {
			groupOf[r] = len(memberSets)
			memberSets = append(memberSets, nil)
		}
		memberSets[groupOf[r]] = append(memberSets[groupOf[r]], i)
	}

	size := len(memberSets[0])
	if size == 1 {
		return nil, nil, clusterErr("latency level %d groups nothing", lat)
	}
	for _, ms := range memberSets {
		if len(ms) != size {
			return nil, nil, clusterErr(
				"latency level %d produces groups of size %d and %d", lat, size, len(ms))
		}
		// Internal completeness: every pair inside the group must be lat.
		for a := 0; a < len(ms); a++ {
			for b := a + 1; b < len(ms); b++ {
				if v := at(ms[a], ms[b]); v != lat {
					return nil, nil, clusterErr(
						"components %d and %d grouped at level %d but communicate at %d",
						ms[a], ms[b], lat, v)
				}
			}
		}
	}

	// Reduce the table, verifying external uniformity.
	g := len(memberSets)
	reduced := make([][]int64, g)
	for i := range reduced {
		reduced[i] = make([]int64, g)
	}
	for gi := 0; gi < g; gi++ {
		for gj := gi + 1; gj < g; gj++ {
			ref := at(memberSets[gi][0], memberSets[gj][0])
			for _, a := range memberSets[gi] {
				for _, b := range memberSets[gj] {
					if v := at(a, b); v != ref {
						return nil, nil, clusterErr(
							"group (%d,%d) has non-uniform external latency: %d vs %d",
							gi, gj, v, ref)
					}
				}
			}
			reduced[gi][gj] = ref
			reduced[gj][gi] = ref
		}
	}

	// Merge the context sets.
	merged := make([][]int, g)
	for gi, ms := range memberSets {
		for _, ci := range ms {
			merged[gi] = append(merged[gi], components[ci]...)
		}
		sort.Ints(merged[gi])
	}
	return merged, reduced, nil
}
