package topo

import (
	"fmt"
	"sort"
	"strings"
)

// Graphviz visualization (Section 2.1): libmctop generates two graphs — the
// intra-socket topology with memory latencies/bandwidths (Figures 1a, 2a,
// 3) and the cross-socket topology with interconnect latencies and
// bandwidths plus the non-direct "lvl N" note (Figures 1b, 2b).

// DotIntraSocket renders the intra-socket graph of one socket: a cluster of
// core rows (each row lists the core's hardware contexts and the same-core
// latency), surrounded by the memory nodes with their latency and bandwidth
// from this socket; the local node is shaded.
func (t *Topology) DotIntraSocket(socket int) string {
	s := t.Socket(socket)
	if s == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "graph mctop_socket_%d {\n", socket)
	b.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n")
	fmt.Fprintf(&b, "  subgraph cluster_socket {\n    label=\"Socket %d - %d cycles\";\n", socket, s.Latency)
	coreLat := int64(0)
	if t.HasSMT() {
		coreLat = t.cores[0].Latency
	}
	for _, core := range t.SocketGetCores(s) {
		ids := make([]string, 0, len(core.Contexts))
		for _, c := range core.Contexts {
			ids = append(ids, fmt.Sprintf("%03d", c.ID))
		}
		label := strings.Join(ids, " ")
		if t.HasSMT() {
			label += fmt.Sprintf("  %d", coreLat)
		}
		fmt.Fprintf(&b, "    core_%d [label=\"%s\"];\n", core.ID, label)
	}
	b.WriteString("  }\n")
	for _, n := range t.nodes {
		lat, bw := int64(0), 0.0
		if s.MemLat != nil {
			lat = s.MemLat[n.ID]
		}
		if s.MemBW != nil {
			bw = s.MemBW[n.ID]
		}
		style := ""
		if s.Local == n {
			style = ", style=filled, fillcolor=gray80"
		}
		fmt.Fprintf(&b, "  node_%d [label=\"Node %d\\n%d cy\\n%.1f GB/s\"%s];\n", n.ID, n.ID, lat, bw, style)
		fmt.Fprintf(&b, "  cluster_anchor_%d [style=invis, label=\"\"];\n", n.ID)
	}
	b.WriteString("}\n")
	return b.String()
}

// DotCrossSocket renders the cross-socket graph from the socket matrices:
// sockets as vertices; an edge, labelled with the pair's latency and
// bandwidth, for each pair of sockets whose latency lies in the lowest
// cross level or in no cross level; and for each higher cross level i a
// note "lvl i (h hops) NNN cy", h being i minus the socket level's index
// (the paper's "lvl 4"). The lowest cross level stands for the direct
// links, as it does on the Intel machines. On the Opteron it holds only
// the MCM siblings: the HT links between dies of different packages sit
// one level up and are annotated as two hops.
func (t *Topology) DotCrossSocket() string {
	var b strings.Builder
	b.WriteString("graph mctop_cross_socket {\n")
	b.WriteString("  layout=circo;\n  node [shape=circle, fontname=\"Helvetica\"];\n")
	for _, s := range t.sockets {
		fmt.Fprintf(&b, "  s%d [label=\"%d\"];\n", s.ID, s.ID)
	}
	si := t.spec.socketLevelIdx()
	cross := t.spec.Levels[si+1:]
	for s1, row := range t.spec.SocketLat {
		for s2 := s1 + 1; s2 < len(row); s2++ {
			if !inLowestCross(cross, row[s2]) {
				continue
			}
			label := fmt.Sprintf("%d cy", row[s2])
			if bw := t.SocketBW(s1, s2); bw > 0 {
				label += fmt.Sprintf("\\n%.1f GB/s", bw)
			}
			fmt.Fprintf(&b, "  s%d -- s%d [label=\"%s\"];\n", s1, s2, label)
		}
	}
	// Higher cross levels as annotations, matching the paper's "lvl 4".
	for i, l := range t.spec.Levels {
		if l.Kind != LevelCross || i == si+1 {
			continue
		}
		hops := i - si
		fmt.Fprintf(&b, "  lvl%d [shape=plaintext, label=\"lvl %d\\n(%d hops) %d cy\"];\n", i, i, hops, l.Median)
	}
	b.WriteString("}\n")
	return b.String()
}

// inLowestCross reports whether a socket-pair latency lies in the lowest of
// the cross levels, or in none of them: the pairs DotCrossSocket draws.
func inLowestCross(cross []Level, lat int64) bool {
	for i, l := range cross {
		if lat >= l.Min && lat <= l.Max {
			return i == 0
		}
	}
	return true
}

// String renders a textual summary of the topology, the "textual output"
// alternative to the graphs.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MCTOP %s: %d contexts, %d cores, %d sockets, %d nodes, SMT=%d\n",
		t.spec.Name, t.NumHWContexts(), t.NumCores(), t.NumSockets(), t.NumNodes(), t.spec.SMTWays)
	for i, l := range t.spec.Levels {
		fmt.Fprintf(&b, "  level %d (%s %q): lat %d [%d..%d]",
			i+1, l.Kind, l.Name, l.Median, l.Min, l.Max)
		if l.Groups != nil {
			fmt.Fprintf(&b, ", %d groups of %d", len(l.Groups), len(l.Groups[0]))
		}
		b.WriteByte('\n')
	}
	for _, s := range t.sockets {
		fmt.Fprintf(&b, "  socket %d: node %d, contexts", s.ID, s.Local.ID)
		for i, c := range s.Contexts {
			if i == 8 {
				fmt.Fprintf(&b, " ... (%d total)", len(s.Contexts))
				break
			}
			fmt.Fprintf(&b, " %d", c.ID)
		}
		if s.MemLat != nil {
			fmt.Fprintf(&b, "; local mem %d cy", s.MemLat[s.Local.ID])
		}
		if s.MemBW != nil {
			fmt.Fprintf(&b, " %.1f GB/s", s.MemBW[s.Local.ID])
		}
		b.WriteByte('\n')
	}
	if t.NumSockets() > 1 {
		b.WriteString("  socket latencies:\n")
		for _, row := range t.spec.SocketLat {
			b.WriteString("   ")
			for _, v := range row {
				fmt.Fprintf(&b, " %4d", v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CompareOS compares the inferred topology against the operating system's
// view (Section 3.6: "one basic sanity check is to compare the inferred
// MCTOP to the topology of the OS") and returns a human-readable list of
// divergences — empty when the two agree.
func (t *Topology) CompareOS(osCoreOfCtx, osSocketOfCtx, osNodeOfSocket []int) []string {
	var diffs []string
	n := t.NumHWContexts()
	if len(osCoreOfCtx) != n || len(osSocketOfCtx) != n {
		return []string{fmt.Sprintf("OS reports %d contexts, MCTOP has %d", len(osCoreOfCtx), n)}
	}
	// Same-core relation must match.
	coreMismatch := 0
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			mct := t.Context(x).Core == t.Context(y).Core
			osv := osCoreOfCtx[x] == osCoreOfCtx[y]
			if mct != osv {
				coreMismatch++
			}
		}
	}
	if coreMismatch > 0 {
		diffs = append(diffs, fmt.Sprintf("core grouping differs for %d context pairs", coreMismatch))
	}
	// Same-socket relation must match.
	sockMismatch := 0
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			mct := t.Context(x).Socket == t.Context(y).Socket
			osv := osSocketOfCtx[x] == osSocketOfCtx[y]
			if mct != osv {
				sockMismatch++
			}
		}
	}
	if sockMismatch > 0 {
		diffs = append(diffs, fmt.Sprintf("socket grouping differs for %d context pairs", sockMismatch))
	}
	// Socket-to-node mapping: map each MCTOP socket to the OS socket that
	// holds the same contexts, then compare claimed local nodes. This is
	// the check that catches the Opteron's misconfigured OS (footnote 1).
	if sockMismatch == 0 && len(osNodeOfSocket) > 0 {
		var nodeDiffs []int
		for _, s := range t.sockets {
			osSock := osSocketOfCtx[s.Contexts[0].ID]
			if osSock < 0 || osSock >= len(osNodeOfSocket) {
				continue
			}
			if osNodeOfSocket[osSock] != s.Local.ID {
				nodeDiffs = append(nodeDiffs, s.ID)
			}
		}
		if len(nodeDiffs) > 0 {
			sort.Ints(nodeDiffs)
			diffs = append(diffs, fmt.Sprintf(
				"socket-to-node mapping differs for sockets %v (OS may be misconfigured; rerun the memory-latency experiment to confirm)",
				nodeDiffs))
		}
	}
	return diffs
}
