package graph

// Task DAGs: the application side of the task-graph mapping service
// (internal/taskmap). A TaskDAG is a weighted directed acyclic graph —
// node weights are compute cycles, edge weights are communication volumes
// in bytes — the input AMTHA-style mappers pair with a hardware topology.
// The package also carries the deterministic layered random-DAG generator
// the property tests and cmd/mctopd's fleet load tests share, and the NDJSON
// file codec `mctop map` reads.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/mctoperr"
	"repro/internal/rng"
)

// TaskNode is one task: ID is its position (IDs are dense, 0..N-1) and
// Work its compute weight in cycles.
type TaskNode struct {
	ID   int   `json:"id"`
	Work int64 `json:"work"`
}

// TaskEdge is one precedence/communication edge: To cannot start before
// From finishes, and Volume bytes move between their assigned hardware
// contexts (free when both run on the same context).
type TaskEdge struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	Volume int64 `json:"volume"`
}

// TaskDAG is a weighted task graph. Nodes are ordered by ID; Edges are in
// canonical (From, To) order after Validate. The zero Name is fine — the
// canonical hash covers structure only, so two identically shaped DAGs
// share cache entries whatever they are called.
type TaskDAG struct {
	Name  string     `json:"name,omitempty"`
	Nodes []TaskNode `json:"nodes"`
	Edges []TaskEdge `json:"edges,omitempty"`
}

// Validate checks structural invariants: dense IDs in order, non-negative
// weights, edge endpoints in range, no self-edges or duplicate edges, and
// acyclicity. Mappers call TopoOrder instead, which runs the same checks
// and keeps the order it computes, so the scheduling inner loops can trust
// the shape after one Kahn pass. Validate also checks the name is
// line-safe: it is a value of the mapping's interchange file, so it may
// hold no line break and may not start or end with white space. Every
// failure wraps mctoperr.ErrInvalidRequest.
func (d *TaskDAG) Validate() error {
	var err error
	if strings.ContainsAny(d.Name, "\r\n") || strings.TrimFunc(d.Name, unicode.IsSpace) != d.Name {
		err = fmt.Errorf("taskdag: name %q holds a line break or starts or ends with white space", d.Name)
	} else {
		_, err = d.TopoOrder()
	}
	if err != nil {
		return fmt.Errorf("%w: %v", mctoperr.ErrInvalidRequest, err)
	}
	return nil
}

// checkShape is every Validate check but acyclicity. Edges in canonical
// order — strictly ascending (From, To), as Normalize, DecodeTaskDAG and
// GenTaskDAG leave them — cannot repeat one another, so the index of seen
// edges is built only from the first edge that is not above its
// predecessor, out of the edges before it, and the checks report the same
// first failure either way.
func (d *TaskDAG) checkShape() error {
	if len(d.Nodes) == 0 {
		return fmt.Errorf("taskdag: no nodes")
	}
	for i, n := range d.Nodes {
		if n.ID != i {
			return fmt.Errorf("taskdag: node %d has id %d (ids must be dense and ordered)", i, n.ID)
		}
		if n.Work < 0 {
			return fmt.Errorf("taskdag: node %d has negative work %d", i, n.Work)
		}
	}
	var seen map[[2]int]bool
	for i, e := range d.Edges {
		if e.From < 0 || e.From >= len(d.Nodes) || e.To < 0 || e.To >= len(d.Nodes) {
			return fmt.Errorf("taskdag: edge %d (%d->%d) out of range", i, e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("taskdag: edge %d is a self-loop on %d", i, e.From)
		}
		if e.Volume < 0 {
			return fmt.Errorf("taskdag: edge %d has negative volume %d", i, e.Volume)
		}
		if seen == nil {
			if i == 0 || edgeLess(d.Edges[i-1], e) {
				continue
			}
			seen = make(map[[2]int]bool, len(d.Edges))
			for _, p := range d.Edges[:i] {
				seen[[2]int{p.From, p.To}] = true
			}
		}
		k := [2]int{e.From, e.To}
		if seen[k] {
			return fmt.Errorf("taskdag: duplicate edge %d->%d", e.From, e.To)
		}
		seen[k] = true
	}
	return nil
}

// edgeLess is the canonical edge order: by From, then To.
func edgeLess(a, b TaskEdge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// Normalize sorts the edges into canonical (From, To) order, so DAGs that
// differ only in edge listing order hash (and therefore cache) the same.
func (d *TaskDAG) Normalize() {
	sort.Slice(d.Edges, func(i, j int) bool { return edgeLess(d.Edges[i], d.Edges[j]) })
}

// Hash is the DAG's canonical FNV-64a fingerprint over its normalized
// structure (nodes, works, edges, volumes — not the Name), the
// DAG-identity component of taskmap registry keys. Stable across processes
// and platforms: pure integer arithmetic over a fixed serialization. Edges
// already strictly ascending are hashed in place: sorting them would
// return them as they are.
func (d *TaskDAG) Hash() uint64 {
	edges := d.Edges
	for i := 1; i < len(edges); i++ {
		if !edgeLess(edges[i-1], edges[i]) {
			edges = append([]TaskEdge(nil), d.Edges...)
			sort.Slice(edges, func(i, j int) bool { return edgeLess(edges[i], edges[j]) })
			break
		}
	}
	h := uint64(14695981039346656037)
	mix := func(s []byte) {
		for _, c := range s {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	var line [64]byte // one node or edge line: at most 64 bytes
	b := line[:0]
	for _, n := range d.Nodes {
		b = b[:0]
		b = append(b, 'n')
		b = strconv.AppendInt(b, int64(n.ID), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, n.Work, 10)
		b = append(b, '\n')
		mix(b)
	}
	for _, e := range edges {
		b = b[:0]
		b = append(b, 'e')
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, e.Volume, 10)
		b = append(b, '\n')
		mix(b)
	}
	return h
}

// TopoOrder validates the DAG (the error is Validate's) and returns a
// deterministic topological order: Kahn's algorithm, smallest ready ID
// first. The order is what the taskmap cost model simulates in, so
// determinism here is part of the byte-stability contract.
func (d *TaskDAG) TopoOrder() ([]int, error) {
	order, _, _, err := d.TopoLayout()
	return order, err
}

// TopoLayout is TopoOrder plus the successor layout the order was computed
// from, for callers that walk successors too: node v's successors are
// succ[off[v]:off[v+1]], in edge order.
func (d *TaskDAG) TopoLayout() (order, off, succ []int, err error) {
	if err := d.checkShape(); err != nil {
		return nil, nil, nil, err
	}
	n := len(d.Nodes)
	// Counting sort by tail: count into off, turn the counts into bucket
	// ends, then place the edges back to front, so off[v] ends at its
	// bucket's start. off and succ share one array, and indeg, ready,
	// which never holds more than the n nodes, and the order share another.
	layout := make([]int, n+1+len(d.Edges))
	off, succ = layout[:n+1], layout[n+1:]
	scratch := make([]int, 3*n)
	indeg, ready := scratch[:n], scratch[n:n:2*n]
	for _, e := range d.Edges {
		indeg[e.To]++
		off[e.From]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	for i := len(d.Edges) - 1; i >= 0; i-- {
		e := d.Edges[i]
		off[e.From]--
		succ[off[e.From]] = e.To
	}
	// Small graphs (the service bounds them): a linear scan for the
	// smallest ready ID beats a heap for clarity and keeps min-ID-first
	// exact.
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order = scratch[2*n : 2*n : 3*n]
	for len(ready) > 0 {
		m := 0
		for i, v := range ready {
			if v < ready[m] {
				m = i
			}
		}
		v := ready[m]
		ready[m] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, w := range succ[off[v]:off[v+1]] {
			if indeg[w]--; indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if len(order) != n {
		return nil, nil, nil, fmt.Errorf("taskdag: cycle detected (%d of %d nodes ordered)", len(order), n)
	}
	return order, off, succ, nil
}

// TotalWork sums the node weights.
func (d *TaskDAG) TotalWork() int64 {
	var s int64
	for _, n := range d.Nodes {
		s += n.Work
	}
	return s
}

// DAGParams parameterizes GenTaskDAG. Zero fields take the defaults noted
// per field.
type DAGParams struct {
	// Layers is the DAG depth (default 3).
	Layers int
	// Width is the maximum tasks per layer (default 3); actual widths are
	// drawn in [1, Width].
	Width int
	// MinWork/MaxWork bound node compute weights (defaults 100/10000).
	MinWork, MaxWork int64
	// MinVolume/MaxVolume bound edge communication volumes
	// (defaults 0/65536).
	MinVolume, MaxVolume int64
}

func (p DAGParams) withDefaults() DAGParams {
	if p.Layers <= 0 {
		p.Layers = 3
	}
	if p.Width <= 0 {
		p.Width = 3
	}
	if p.MaxWork <= 0 {
		p.MinWork, p.MaxWork = 100, 10000
	}
	if p.MaxVolume <= 0 {
		p.MaxVolume = 65536
	}
	if p.MinWork < 0 {
		p.MinWork = 0
	}
	if p.MinWork > p.MaxWork {
		p.MinWork = p.MaxWork
	}
	if p.MinVolume < 0 {
		p.MinVolume = 0
	}
	if p.MinVolume > p.MaxVolume {
		p.MinVolume = p.MaxVolume
	}
	return p
}

// GenTaskDAG builds a deterministic layered random DAG: Layers layers of
// [1, Width] tasks each, every task wired to one or more tasks of the
// previous layer (so the graph is connected layer to layer and acyclic by
// construction), with works and volumes drawn uniformly from the
// configured ranges. The same counter-based splitmix64 stream as
// GenPowerLaw: one seed, one DAG, bit-for-bit, on every platform.
func GenTaskDAG(p DAGParams, seed uint64) *TaskDAG {
	p = p.withDefaults()
	ctr := seed
	next := func() uint64 {
		ctr++
		return rng.Mix(ctr * rng.Increment)
	}
	draw := func(lo, hi int64) int64 { // uniform in [lo, hi]
		if hi <= lo {
			return lo
		}
		return lo + int64(next()%uint64(hi-lo+1))
	}
	d := &TaskDAG{Name: fmt.Sprintf("gen-%d", seed)}
	var prev []int // node IDs of the previous layer
	for l := 0; l < p.Layers; l++ {
		width := 1 + int(next()%uint64(p.Width))
		layer := make([]int, 0, width)
		for i := 0; i < width; i++ {
			id := len(d.Nodes)
			d.Nodes = append(d.Nodes, TaskNode{ID: id, Work: draw(p.MinWork, p.MaxWork)})
			layer = append(layer, id)
		}
		for _, id := range layer {
			added := false
			for _, src := range prev {
				// Each (prev, cur) pair gets an edge with probability 1/2;
				// every task is then guaranteed at least one parent below.
				if next()&1 == 0 {
					d.Edges = append(d.Edges, TaskEdge{From: src, To: id, Volume: draw(p.MinVolume, p.MaxVolume)})
					added = true
				}
			}
			if len(prev) > 0 && !added {
				src := prev[int(next()%uint64(len(prev)))]
				d.Edges = append(d.Edges, TaskEdge{From: src, To: id, Volume: draw(p.MinVolume, p.MaxVolume)})
			}
		}
		prev = layer
	}
	d.Normalize()
	return d
}

// dagLine is the NDJSON wire shape: exactly one of the three sections per
// line. A "dag" header line is optional and carries the name.
type dagLine struct {
	DAG    *string `json:"dag,omitempty"`
	Node   *int    `json:"node,omitempty"`
	Work   *int64  `json:"work,omitempty"`
	Edge   *[2]int `json:"edge,omitempty"`
	Volume *int64  `json:"volume,omitempty"`
}

// EncodeTaskDAG writes the NDJSON task-DAG interchange format `mctop map`
// reads — one JSON object per line:
//
//	{"dag":"wordcount"}
//	{"node":0,"work":1000}
//	{"node":1,"work":2000}
//	{"edge":[0,1],"volume":4096}
func EncodeTaskDAG(w io.Writer, d *TaskDAG) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if d.Name != "" {
		name := d.Name
		if err := enc.Encode(dagLine{DAG: &name}); err != nil {
			return err
		}
	}
	for i := range d.Nodes {
		n := d.Nodes[i]
		if err := enc.Encode(dagLine{Node: &n.ID, Work: &n.Work}); err != nil {
			return err
		}
	}
	for i := range d.Edges {
		e := d.Edges[i]
		pair := [2]int{e.From, e.To}
		if err := enc.Encode(dagLine{Edge: &pair, Volume: &e.Volume}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeTaskDAG reads the NDJSON format back, validates the DAG and
// normalizes its edge order. Blank lines and #-comments are skipped.
func DecodeTaskDAG(r io.Reader) (*TaskDAG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	d := &TaskDAG{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		trimmed := 0
		for trimmed < len(line) && (line[trimmed] == ' ' || line[trimmed] == '\t') {
			trimmed++
		}
		line = line[trimmed:]
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var l dagLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("taskdag: line %d: %w", lineNo, err)
		}
		switch {
		case l.DAG != nil:
			d.Name = *l.DAG
		case l.Node != nil:
			work := int64(0)
			if l.Work != nil {
				work = *l.Work
			}
			d.Nodes = append(d.Nodes, TaskNode{ID: *l.Node, Work: work})
		case l.Edge != nil:
			vol := int64(0)
			if l.Volume != nil {
				vol = *l.Volume
			}
			d.Edges = append(d.Edges, TaskEdge{From: l.Edge[0], To: l.Edge[1], Volume: vol})
		default:
			return nil, fmt.Errorf("taskdag: line %d: neither dag, node nor edge", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	d.Normalize()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
