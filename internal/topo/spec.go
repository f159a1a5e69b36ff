package topo

import (
	"fmt"
	"math"
	"slices"
)

// Spec is the complete, serializable description of an MCTOP topology: what
// MCTOP-ALG produces, what description files store, and what FromSpec turns
// into the linked Topology structure.
type Spec struct {
	Name     string
	Contexts int
	Nodes    int
	// SMTWays is the number of hardware contexts per core (1 = no SMT).
	SMTWays int
	FreqGHz float64

	// Levels are the latency levels in ascending order. Intra-socket levels
	// (LevelGroup and the single LevelSocket) carry component partitions;
	// cross-socket levels (LevelCross) carry only their latency cluster.
	Levels []Level

	// NodeOfSocket maps socket index (the order of the socket level's
	// groups) to memory node id.
	NodeOfSocket []int

	// SocketLat is the full socket-to-socket latency matrix; the diagonal
	// holds the intra-socket latency.
	SocketLat [][]int64
	// SocketBW is the measured interconnect bandwidth matrix (optional).
	SocketBW [][]float64

	// MemLat / MemBW are the memory plugins' socket-by-node measurements
	// (optional until the plugins run).
	MemLat [][]int64
	MemBW  [][]float64
	// StreamCoreBW is the bandwidth one streaming core achieves (GB/s);
	// the RR_SCALE policy uses it to compute how many threads saturate a
	// node. 0 when the bandwidth plugin has not run.
	StreamCoreBW float64

	Cache *CacheInfo
	Power *PowerInfo
}

// socketLevelIdx returns the index of the socket level, or -1.
func (s *Spec) socketLevelIdx() int {
	for i, l := range s.Levels {
		if l.Kind == LevelSocket {
			return i
		}
	}
	return -1
}

// Validate checks the structural invariants libmctop relies on (the same
// symmetry rules it uses to detect mis-clustered measurements, Section 3.6).
func (s *Spec) Validate() error {
	if s.Contexts <= 0 {
		return fmt.Errorf("topo: %s: no hardware contexts", s.Name)
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("topo: %s: no memory nodes", s.Name)
	}
	if s.SMTWays < 1 {
		return fmt.Errorf("topo: %s: SMTWays = %d", s.Name, s.SMTWays)
	}
	si := s.socketLevelIdx()
	if si < 0 {
		return fmt.Errorf("topo: %s: no socket level", s.Name)
	}
	prevLat := int64(0)
	prevGroups := 0
	for i, l := range s.Levels {
		if l.Median <= prevLat {
			return fmt.Errorf("topo: %s: level %d latency %d not above previous %d",
				s.Name, i, l.Median, prevLat)
		}
		prevLat = l.Median
		switch {
		case i < si:
			if l.Kind != LevelGroup {
				return fmt.Errorf("topo: %s: level %d below socket level has kind %v", s.Name, i, l.Kind)
			}
		case i == si:
		default:
			if l.Kind != LevelCross {
				return fmt.Errorf("topo: %s: level %d above socket level has kind %v", s.Name, i, l.Kind)
			}
			if l.Groups != nil {
				return fmt.Errorf("topo: %s: cross level %d must not carry groups", s.Name, i)
			}
			continue
		}
		// Grouped level: must partition the contexts into uniform,
		// nested components.
		if err := s.validatePartition(i, l, prevGroups); err != nil {
			return err
		}
		prevGroups = i + 1 // levels 0..i validated as grouped
	}
	// With SMT the first grouped level's groups are the cores, and the
	// placement policies walk SMTWays contexts of each.
	if n := len(s.Levels[0].Groups[0]); s.SMTWays > 1 && n != s.SMTWays {
		return fmt.Errorf("topo: %s: smt %d, but level 0's groups, the cores, hold %d contexts each",
			s.Name, s.SMTWays, n)
	}
	nSockets := len(s.Levels[si].Groups)
	if len(s.NodeOfSocket) != nSockets {
		return fmt.Errorf("topo: %s: NodeOfSocket has %d entries for %d sockets",
			s.Name, len(s.NodeOfSocket), nSockets)
	}
	nodeSeen := make([]bool, s.Nodes)
	for sock, n := range s.NodeOfSocket {
		if n < 0 || n >= s.Nodes {
			return fmt.Errorf("topo: %s: socket %d mapped to invalid node %d", s.Name, sock, n)
		}
		nodeSeen[n] = true
	}
	for n, ok := range nodeSeen {
		if !ok {
			return fmt.Errorf("topo: %s: node %d has no socket", s.Name, n)
		}
	}
	if len(s.SocketLat) != nSockets {
		return fmt.Errorf("topo: %s: SocketLat is %dx? for %d sockets", s.Name, len(s.SocketLat), nSockets)
	}
	// Every row's length first: the symmetry check below reads across rows.
	for i, row := range s.SocketLat {
		if len(row) != nSockets {
			return fmt.Errorf("topo: %s: SocketLat row %d has %d entries", s.Name, i, len(row))
		}
	}
	for i, row := range s.SocketLat {
		for j, v := range row {
			if v <= 0 {
				return fmt.Errorf("topo: %s: SocketLat[%d][%d] = %d", s.Name, i, j, v)
			}
			if s.SocketLat[j][i] != v {
				return fmt.Errorf("topo: %s: SocketLat not symmetric at (%d,%d)", s.Name, i, j)
			}
		}
	}
	if s.MemLat != nil {
		if len(s.MemLat) != nSockets {
			return fmt.Errorf("topo: %s: MemLat has %d rows", s.Name, len(s.MemLat))
		}
		for i, row := range s.MemLat {
			if len(row) != s.Nodes {
				return fmt.Errorf("topo: %s: MemLat row %d has %d entries", s.Name, i, len(row))
			}
		}
	}
	if s.MemBW != nil {
		if len(s.MemBW) != nSockets {
			return fmt.Errorf("topo: %s: MemBW has %d rows", s.Name, len(s.MemBW))
		}
		for i, row := range s.MemBW {
			if len(row) != s.Nodes {
				return fmt.Errorf("topo: %s: MemBW row %d has %d entries", s.Name, i, len(row))
			}
		}
	}
	if s.SocketBW != nil {
		if len(s.SocketBW) != nSockets {
			return fmt.Errorf("topo: %s: SocketBW has %d rows", s.Name, len(s.SocketBW))
		}
		for i, row := range s.SocketBW {
			if len(row) != nSockets {
				return fmt.Errorf("topo: %s: SocketBW row %d has %d entries", s.Name, i, len(row))
			}
		}
	}
	return s.validateFinite()
}

// validateFinite refuses NaN and ±Inf in every float field. A description
// file can spell them (strconv.ParseFloat accepts "NaN" and "Inf"), but no
// measurement yields one, and the spec's JSON view cannot carry them: a
// topology holding one could be loaded yet never served.
func (s *Spec) validateFinite() error {
	bad := func(field string, v float64) error {
		return fmt.Errorf("topo: %s: %s is %v, want a finite number", s.Name, field, v)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(s.FreqGHz) {
		return bad("freq_ghz", s.FreqGHz)
	}
	if !finite(s.StreamCoreBW) {
		return bad("stream_core_bw", s.StreamCoreBW)
	}
	for _, m := range []struct {
		field string
		rows  [][]float64
	}{{"socket_bw", s.SocketBW}, {"mem_bw", s.MemBW}} {
		for i, row := range m.rows {
			for j, v := range row {
				if !finite(v) {
					return bad(fmt.Sprintf("%s[%d][%d]", m.field, i, j), v)
				}
			}
		}
	}
	if p := s.Power; p != nil {
		for i, v := range [...]float64{p.Idle, p.Full, p.FirstCtx, p.SecondCtx, p.PerSocketBase, p.PerFirstCtx, p.PerExtraCtx, p.DRAM} {
			if !finite(v) {
				return bad(fmt.Sprintf("power[%d]", i), v)
			}
		}
	}
	return nil
}

// validatePartition enforces the symmetry rules of Section 3.6 on one
// grouped level: every context in exactly one component, all components the
// same size, and every lower-level component contained in exactly one
// component of this level.
func (s *Spec) validatePartition(idx int, l Level, nLower int) error {
	if len(l.Groups) == 0 {
		return fmt.Errorf("topo: %s: level %d has no groups", s.Name, idx)
	}
	seen := make([]int, s.Contexts)
	for i := range seen {
		seen[i] = -1
	}
	size := len(l.Groups[0])
	for gi, g := range l.Groups {
		if len(g) != size {
			return fmt.Errorf("topo: %s: level %d group %d has %d contexts, others %d",
				s.Name, idx, gi, len(g), size)
		}
		for _, ctx := range g {
			if ctx < 0 || ctx >= s.Contexts {
				return fmt.Errorf("topo: %s: level %d group %d contains invalid context %d",
					s.Name, idx, gi, ctx)
			}
			if seen[ctx] != -1 {
				return fmt.Errorf("topo: %s: context %d in two groups of level %d", s.Name, ctx, idx)
			}
			seen[ctx] = gi
		}
	}
	for ctx, gi := range seen {
		if gi == -1 {
			return fmt.Errorf("topo: %s: context %d missing from level %d", s.Name, ctx, idx)
		}
	}
	// Nesting: every group of the previous grouped level must land in
	// exactly one group here.
	if idx > 0 && nLower > 0 {
		lower := s.Levels[idx-1]
		if lower.Groups != nil {
			for gi, g := range lower.Groups {
				target := seen[g[0]]
				for _, ctx := range g[1:] {
					if seen[ctx] != target {
						return fmt.Errorf("topo: %s: level %d group %d straddles level %d groups",
							s.Name, idx-1, gi, idx)
					}
				}
			}
		}
	}
	return nil
}

// FromSpec validates a spec and builds the linked Topology: its contexts,
// cores, sockets and nodes. The levels between a core and its socket stay
// the spec's partitions, and the cross-socket structure the spec's socket
// matrices; the query index reads both (index.go).
func FromSpec(spec Spec) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	si := spec.socketLevelIdx()
	t := &Topology{spec: spec}

	t.contexts = make([]*HWContext, spec.Contexts)
	for i := range t.contexts {
		t.contexts[i] = &HWContext{ID: i}
	}
	t.nodes = make([]*Node, spec.Nodes)
	for i := range t.nodes {
		t.nodes[i] = &Node{ID: i}
	}

	// Sockets, in the socket level's group order.
	t.sockets = make([]*Socket, len(spec.Levels[si].Groups))
	for id, g := range spec.Levels[si].Groups {
		s := &Socket{HWCGroup: HWCGroup{ID: id, Latency: spec.Levels[si].Median, Contexts: t.members(g)}}
		for _, c := range s.Contexts {
			c.Socket = s
		}
		node := t.nodes[spec.NodeOfSocket[id]]
		s.Local = node
		if spec.MemLat != nil {
			s.MemLat = spec.MemLat[id]
			node.Lat = spec.MemLat[id][node.ID]
		}
		if spec.MemBW != nil {
			s.MemBW = spec.MemBW[id]
			node.BW = spec.MemBW[id][node.ID]
		}
		t.sockets[id] = s
	}

	// Cores: with SMT, the groups of the first grouped level (the sockets
	// themselves when the socket level comes first); without, one
	// synthesized core per context, so placement policies treat every
	// machine alike.
	if spec.SMTWays > 1 {
		t.cores = make([]*HWCGroup, len(spec.Levels[0].Groups))
		for i, g := range spec.Levels[0].Groups {
			cs := t.members(g)
			t.cores[i] = &HWCGroup{Latency: spec.Levels[0].Median, Contexts: cs, Socket: cs[0].Socket}
		}
	} else {
		t.cores = make([]*HWCGroup, spec.Contexts)
		for i, c := range t.contexts {
			t.cores[i] = &HWCGroup{Contexts: t.contexts[i : i+1 : i+1], Socket: c.Socket}
		}
	}
	// Number cores globally by (socket, first context).
	slices.SortFunc(t.cores, func(a, b *HWCGroup) int {
		if a.Socket.ID != b.Socket.ID {
			return a.Socket.ID - b.Socket.ID
		}
		return a.Contexts[0].ID - b.Contexts[0].ID
	})
	for i, core := range t.cores {
		core.ID = i
		for _, c := range core.Contexts {
			c.Core = core
		}
	}
	return t, nil
}

// members returns the contexts of a spec group, in id order.
func (t *Topology) members(g []int) []*HWContext {
	cs := make([]*HWContext, len(g))
	for i, ctx := range g {
		cs[i] = t.contexts[ctx]
	}
	slices.SortFunc(cs, func(a, b *HWContext) int { return a.ID - b.ID })
	return cs
}

// Spec returns the originating spec (for serialization).
func (t *Topology) Spec() Spec { return t.spec }
