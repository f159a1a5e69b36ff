package spool

// The spool's interchange codec, factored out of the file-backed tier so
// every carrier of the on-disk format — the spool itself, `mctop
// export/import/fetch`, mctopd's /v1/export endpoint and the remote store
// tier that consumes it — encodes and decodes the exact same bytes. A
// topology travels as a `#key`-headed description file; a placement as the
// compact sidecar documented on EncodeSidecar; a mapping as the one on
// EncodeMapSidecar. Everything here works on io.Reader/io.Writer: the
// spool wraps files around it, the fleet tier wraps HTTP bodies.
//
// Encode and Decode are the one per-kind dispatch every carrier goes
// through: a new cached kind is a row in registry's kind table plus one
// arm in each of them.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"weak"

	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// Encode writes the interchange form of one cache entry: the file the
// spool persists under key and the body /v1/export serves for it. val is
// the value or the *registry.Entry holding it. A value that is not of the
// kind, or a sidecar key its topology key cannot be read from, is an error
// and nothing is written.
func Encode(w io.Writer, kind registry.Kind, key string, val any) error {
	if e, ok := val.(*registry.Entry); ok {
		val = e.Val
	}
	parent, derived := kind.ParentKey(key)
	switch v := val.(type) {
	case *topo.Topology:
		if kind == registry.KindTopology {
			return EncodeTopology(w, key, v)
		}
	case *place.Placement:
		if kind == registry.KindPlacement && derived {
			return EncodeSidecar(w, key, parent, v)
		}
	case *taskmap.Mapping:
		if kind == registry.KindMapping && derived {
			return EncodeMapSidecar(w, key, parent, v)
		}
	}
	return fmt.Errorf("cannot encode %T as a %v under key %q", val, kind, key)
}

// Encoded is the entry's interchange file (its registry.FormFile), encoded
// at most once per entry: the spool's writer and mctopd's /v1/export share
// it.
func Encoded(e *registry.Entry) ([]byte, error) {
	return e.Form(registry.FormFile, func() ([]byte, error) {
		var buf bytes.Buffer
		if err := Encode(&buf, e.Kind, e.Key, e.Val); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// Decode reads the interchange form of the entry under key back into its
// value. Sidecars reference their topology by key; topologyFor resolves it
// (the spool decodes the referenced file, the remote tier fetches it). A
// body whose `#key` header names a different key is rejected: a mislabeled
// entry must never land in a cache under this key.
func Decode(r io.Reader, kind registry.Kind, key string, topologyFor func(topoKey string) (*topo.Topology, error)) (any, error) {
	// resolve checks a decoded sidecar's header and fetches its topology.
	resolve := func(gotKey, topoKey string) (*topo.Topology, error) {
		if err := checkKeyHeader(gotKey, key); err != nil {
			return nil, err
		}
		t, err := topologyFor(topoKey)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %w", topoKey, err)
		}
		return t, nil
	}
	switch kind {
	case registry.KindTopology:
		gotKey, t, err := DecodeTopology(r)
		if err == nil {
			err = checkKeyHeader(gotKey, key)
		}
		if err != nil {
			return nil, err
		}
		return t, nil
	case registry.KindPlacement:
		side, err := DecodeSidecar(r)
		if err != nil {
			return nil, err
		}
		t, err := resolve(side.Key, side.TopoKey)
		if err != nil {
			return nil, err
		}
		return place.Reconstruct(t, side.Policy, side.Ctxs)
	case registry.KindMapping:
		side, err := DecodeMapSidecar(r)
		if err != nil {
			return nil, err
		}
		t, err := resolve(side.Key, side.TopoKey)
		if err != nil {
			return nil, err
		}
		return taskmap.Reconstruct(t, side.DAGName, side.DAGHash, side.Nodes, side.Edges, side.Algo, side.Cost, side.Assign)
	}
	return nil, fmt.Errorf("unknown entry kind %v", kind)
}

// TopoMemo remembers every topology its tier decoded that is still alive,
// by key: what a tier puts in front of Decode's topologyFor. A sidecar
// shares its tier's live decoded topology — and the query index already
// built on it — instead of re-reading, re-decoding or re-fetching the
// description file. The memo never retains a topology: it holds weak
// pointers only, and a cleanup drops a key's entry once its topology is
// collected, so what it remembers is bounded by what the caches, in-flight
// requests and write-behind queue already keep alive. The zero value is
// ready to use.
type TopoMemo struct {
	mu sync.Mutex
	m  map[string]weak.Pointer[topo.Topology]
}

// Get returns the live topology memoized under key, else nil.
func (m *TopoMemo) Get(key string) *topo.Topology {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[key].Value()
}

// Set memoizes t under key without keeping it alive.
func (m *TopoMemo) Set(key string, t *topo.Topology) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[string]weak.Pointer[topo.Topology])
	}
	m.m[key] = weak.Make(t)
	m.mu.Unlock()
	// The cleanup's argument is the key, never t: an argument reachable
	// from t would keep it alive forever.
	runtime.AddCleanup(t, m.drop, key)
}

// drop removes key's entry if its topology has been collected; a key
// re-memoized with a live topology since keeps its entry.
func (m *TopoMemo) drop(key string) {
	m.mu.Lock()
	if wp, ok := m.m[key]; ok && wp.Value() == nil {
		delete(m.m, key)
	}
	m.mu.Unlock()
}

// Forget drops key's entry ("" drops every entry).
func (m *TopoMemo) Forget(key string) {
	m.mu.Lock()
	if key == "" {
		clear(m.m)
	} else {
		delete(m.m, key)
	}
	m.mu.Unlock()
}

// checkKeyHeader accepts a body with no `#key` header (a bare file) or one
// naming exactly the key it was read under.
func checkKeyHeader(gotKey, key string) error {
	if gotKey != "" && gotKey != key {
		return fmt.Errorf("key header names %q", gotKey)
	}
	return nil
}

// EncodeTopology writes a topology as a `#key`-headed MCTOP description
// file: the interchange format of the spool, `mctop export` and mctopd's
// /v1/export. The header is a comment, so any .mctop reader decodes the
// body; key may be empty for a bare description file.
func EncodeTopology(w io.Writer, key string, t *topo.Topology) error {
	if key != "" {
		if _, err := fmt.Fprintf(w, "%s%s\n", keyHeader, key); err != nil {
			return err
		}
	}
	spec := t.Spec()
	return topo.Encode(w, &spec)
}

// DecodeTopology reads a description file — spooled, fetched or bare — and
// returns its registry key (empty when the stream has no `#key` header) and
// the topology.
func DecodeTopology(r io.Reader) (key string, t *topo.Topology, err error) {
	br := bufio.NewReader(r)
	// Peel leading `#key` headers by hand; topo.Decode skips all comments,
	// but the key must be surfaced, not skipped.
	for {
		peek, err := br.Peek(1)
		if err != nil {
			return "", nil, err
		}
		if peek[0] != '#' {
			break
		}
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return "", nil, err
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, keyHeader) {
			key = strings.TrimSpace(strings.TrimPrefix(line, keyHeader))
		}
		if err == io.EOF {
			return "", nil, fmt.Errorf("only comments")
		}
	}
	spec, err := topo.Decode(br)
	if err != nil {
		return "", nil, err
	}
	t, err = topo.FromSpec(*spec)
	if err != nil {
		return "", nil, err
	}
	return key, t, nil
}

// Sidecar is the decoded form of a .place file: everything needed to
// rebuild the placement (via place.Reconstruct on the referenced topology)
// without re-running the policy.
type Sidecar struct {
	// Key is the registry placement key (from the #key header; may be
	// empty on hand-written files).
	Key string
	// TopoKey is the registry key of the topology the placement was
	// computed on.
	TopoKey string
	// Policy is the policy name recorded by the placement.
	Policy string
	// Ctxs is the assignment order (hardware context per thread slot).
	Ctxs []int
}

// EncodeSidecar writes the .place sidecar format:
//
//	#key <placement key>
//	mctop-place 1
//	topokey <topology key>
//	policy <name>
//	nthreads <n>
//	ctxs <id...>           (omitted when the placement has no slots)
//	end
func EncodeSidecar(w io.Writer, key, topoKey string, p *place.Placement) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s%s\n", keyHeader, key)
	fmt.Fprintln(bw, placeMagic)
	fmt.Fprintf(bw, "topokey %s\n", topoKey)
	fmt.Fprintf(bw, "policy %s\n", p.PolicyName())
	ctxs := p.Contexts()
	fmt.Fprintf(bw, "nthreads %d\n", len(ctxs))
	if len(ctxs) > 0 {
		bw.WriteString("ctxs")
		for _, c := range ctxs {
			fmt.Fprintf(bw, " %d", c)
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// MapSidecar is the decoded form of a .map file: everything needed to
// rebuild the mapping (via taskmap.Reconstruct on the referenced topology)
// without re-running the mapper.
type MapSidecar struct {
	// Key is the registry mapping key (from the #key header; may be empty
	// on hand-written files).
	Key string
	// TopoKey is the registry key of the topology the mapping was computed
	// on.
	TopoKey string
	// DAGName is the (display-only) name of the mapped DAG; may be empty.
	DAGName string
	// DAGHash / Nodes / Edges identify the DAG structurally, matching the
	// fields embedded in the mapping key.
	DAGHash uint64
	Nodes   int
	Edges   int
	// Algo and Cost record how the assignment was produced and its
	// estimated completion time in cycles.
	Algo string
	Cost int64
	// Assign is the task → hardware-context assignment, one per node.
	Assign []int
}

// EncodeMapSidecar writes the .map sidecar format:
//
//	#key <mapping key>
//	mctop-map 1
//	topokey <topology key>
//	dagname <name>                 (omitted when the DAG is unnamed)
//	dag <hash16hex> <nodes> <edges>
//	algo <name>
//	cost <cycles>
//	assign <ctx...>
//	end
func EncodeMapSidecar(w io.Writer, key, topoKey string, m *taskmap.Mapping) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s%s\n", keyHeader, key)
	fmt.Fprintln(bw, mapMagic)
	fmt.Fprintf(bw, "topokey %s\n", topoKey)
	if name := m.DAGName(); name != "" {
		fmt.Fprintf(bw, "dagname %s\n", name)
	}
	fmt.Fprintf(bw, "dag %016x %d %d\n", m.DAGHash(), m.NumNodes(), m.NumEdges())
	fmt.Fprintf(bw, "algo %s\n", m.Algo())
	fmt.Fprintf(bw, "cost %d\n", m.Cost())
	bw.WriteString("assign")
	for _, c := range m.Assignment() {
		fmt.Fprintf(bw, " %d", c)
	}
	bw.WriteByte('\n')
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// scanSidecar walks the line framing .place and .map sidecars share —
// comments (a `#key` header among them), the magic line, directives, the
// `end` marker — handing each directive to visit, and returns the header's
// key. Nothing after `end` is read.
func scanSidecar(r io.Reader, magic string, visit func(directive, rest string) error) (key string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	sawMagic, sawEnd := false, false
	for !sawEnd && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			if strings.HasPrefix(line, keyHeader) {
				key = strings.TrimSpace(strings.TrimPrefix(line, keyHeader))
			}
		case !sawMagic:
			if line != magic {
				return "", fmt.Errorf("bad magic %q", line)
			}
			sawMagic = true
		case line == "end":
			sawEnd = true
		default:
			directive, rest, _ := strings.Cut(line, " ")
			if err := visit(directive, strings.TrimSpace(rest)); err != nil {
				return "", err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	switch {
	case !sawMagic:
		return "", fmt.Errorf("empty sidecar")
	case !sawEnd:
		return "", fmt.Errorf("missing end marker")
	}
	return key, nil
}

// appendInts appends a directive's space-separated integers to dst.
func appendInts(dst []int, rest, what string) ([]int, error) {
	for _, fld := range strings.Fields(rest) {
		v, err := strconv.Atoi(fld)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", what, fld)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// DecodeMapSidecar parses a .map sidecar.
func DecodeMapSidecar(r io.Reader) (*MapSidecar, error) {
	side := &MapSidecar{Nodes: -1, Cost: -1}
	sawAlgo := false
	key, err := scanSidecar(r, mapMagic, func(directive, rest string) (err error) {
		switch directive {
		case "topokey":
			side.TopoKey = rest
		case "dagname":
			side.DAGName = rest
		case "dag":
			flds := strings.Fields(rest)
			if len(flds) != 3 {
				return fmt.Errorf("bad dag directive %q", rest)
			}
			if len(flds[0]) != 16 || strings.ToLower(flds[0]) != flds[0] {
				return fmt.Errorf("bad DAG hash %q", flds[0])
			}
			h, err := strconv.ParseUint(flds[0], 16, 64)
			if err != nil {
				return fmt.Errorf("bad DAG hash %q", flds[0])
			}
			n, err := strconv.Atoi(flds[1])
			if err != nil || n < 1 {
				return fmt.Errorf("bad node count %q", flds[1])
			}
			e, err := strconv.Atoi(flds[2])
			if err != nil || e < 0 {
				return fmt.Errorf("bad edge count %q", flds[2])
			}
			side.DAGHash, side.Nodes, side.Edges = h, n, e
		case "algo":
			side.Algo = rest
			sawAlgo = true
		case "cost":
			c, err := strconv.ParseInt(rest, 10, 64)
			if err != nil || c < 0 {
				return fmt.Errorf("bad cost %q", rest)
			}
			side.Cost = c
		case "assign":
			side.Assign, err = appendInts(side.Assign, rest, "assign ctx")
		default:
			err = fmt.Errorf("unknown directive %q", directive)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	side.Key = key
	switch {
	case side.TopoKey == "":
		return nil, fmt.Errorf("missing topokey")
	case side.Nodes < 0:
		return nil, fmt.Errorf("missing dag directive")
	case !sawAlgo || side.Algo == "":
		return nil, fmt.Errorf("missing algo")
	case side.Cost < 0:
		return nil, fmt.Errorf("missing cost")
	case len(side.Assign) != side.Nodes:
		return nil, fmt.Errorf("%d nodes but %d assignments", side.Nodes, len(side.Assign))
	}
	return side, nil
}

// DecodeSidecar parses a .place sidecar.
func DecodeSidecar(r io.Reader) (*Sidecar, error) {
	side := &Sidecar{}
	nThreads := -1
	key, err := scanSidecar(r, placeMagic, func(directive, rest string) (err error) {
		switch directive {
		case "topokey":
			side.TopoKey = rest
		case "policy":
			side.Policy = rest
		case "nthreads":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 {
				return fmt.Errorf("bad nthreads %q", rest)
			}
			nThreads = n
		case "ctxs":
			side.Ctxs, err = appendInts(side.Ctxs, rest, "ctx")
		default:
			err = fmt.Errorf("unknown directive %q", directive)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	side.Key = key
	switch {
	case side.TopoKey == "":
		return nil, fmt.Errorf("missing topokey")
	case side.Policy == "":
		return nil, fmt.Errorf("missing policy")
	case nThreads != len(side.Ctxs):
		return nil, fmt.Errorf("nthreads %d but %d ctxs", nThreads, len(side.Ctxs))
	}
	return side, nil
}
