package spool

// The interchange codec, shared by every carrier of the spool's files: the
// spool itself, `mctop export/import/fetch`, mctopd's /v1/export and the
// remote tier that consumes it. internal/topo's Writer and ReadFrame own
// the framing every file shares; this file holds the sidecars' directive
// vocabularies and the rules binding a file to the key it is read under.
// README.md's "Persistence" section documents the formats.
//
// Encode and Decode are the one per-kind dispatch every carrier goes
// through, and their unit is the cached *registry.Entry: Encode writes an
// entry, Decode reads one back bound to its kind and key. A new cached
// kind is a row in registry's kind table plus one arm in each of them.

import (
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

const (
	placeMagic = "mctop-place 1"
	mapMagic   = "mctop-map 1"
)

// magics is each kind's magic line.
var magics = [registry.NumKinds]string{
	registry.KindTopology:  topo.Magic,
	registry.KindPlacement: placeMagic,
	registry.KindMapping:   mapMagic,
}

// Encode writes the interchange form of one cache entry: the file the
// spool persists under the entry's key and the body /v1/export serves for
// it. A value that is not of the entry's kind, a sidecar key its topology
// key cannot be read from, or a value holding a line break is an error.
func Encode(w io.Writer, e *registry.Entry) error {
	parent, derived := e.Kind.ParentKey(e.Key)
	switch v := e.Val.(type) {
	case *topo.Topology:
		if e.Kind == registry.KindTopology {
			spec := v.Spec()
			return topo.EncodeKeyed(w, e.Key, &spec)
		}
	case *place.Placement:
		if e.Kind == registry.KindPlacement && derived {
			fw := topo.NewWriter(w, e.Key, placeMagic)
			fw.Line("topokey").Str(parent)
			fw.Line("policy").Str(v.PolicyName())
			ctxs := v.Contexts()
			fw.Line("nthreads").Int(int64(len(ctxs)))
			if len(ctxs) > 0 {
				fw.Line("ctxs").Ints(ctxs)
			}
			return fw.End()
		}
	case *taskmap.Mapping:
		if e.Kind == registry.KindMapping && derived {
			fw := topo.NewWriter(w, e.Key, mapMagic)
			fw.Line("topokey").Str(parent)
			if name := v.DAGName(); name != "" {
				fw.Line("dagname").Str(name)
			}
			fw.Line("dag").Str(dagIdentity(v.DAGHash(), v.NumNodes(), v.NumEdges()))
			fw.Line("algo").Str(v.Algo())
			fw.Line("cost").Int(v.Cost())
			fw.Line("assign").Ints(v.Assignment())
			return fw.End()
		}
	}
	return fmt.Errorf("cannot encode %T as a %v under key %q", e.Val, e.Kind, e.Key)
}

// dagIdentity is a .map sidecar's `dag` value: hash, nodes, edges.
func dagIdentity(hash uint64, nodes, edges int) string {
	return fmt.Sprintf("%016x %d %d", hash, nodes, edges)
}

// Encoded is the entry's interchange file (its registry.FormFile), encoded
// at most once per entry: the spool's writer and mctopd's /v1/export share
// it.
func Encoded(e *registry.Entry) ([]byte, error) {
	return e.Form(registry.FormFile, func() ([]byte, error) {
		var buf bytes.Buffer
		if err := Encode(&buf, e); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// Decode reads the interchange form of the entry under key back into that
// entry, bound to the key: the file's one #key line must name key, a
// sidecar's topokey must be key's topology — which topologyFor then
// resolves (the spool decodes the referenced file, the remote tier fetches
// it) — and a .map sidecar's DAG identity must be key's. A mislabeled file
// must never land in a cache under this key. On error the entry is nil.
func Decode(r io.Reader, kind registry.Kind, key string, topologyFor func(topoKey string) (*topo.Topology, error)) (*registry.Entry, error) {
	switch kind {
	case registry.KindTopology:
		got, spec, err := topo.DecodeKeyed(r)
		if err == nil {
			err = bindKey(got, key)
		}
		if err != nil {
			return nil, err
		}
		t, err := topo.FromSpec(*spec)
		if err != nil {
			return nil, err
		}
		return registry.NewEntry(kind, key, t), nil
	case registry.KindPlacement:
		var policy string
		var ctxs []int
		nThreads := -1
		topoKey, err := readSidecar(r, kind, key, func(directive, rest string) (err error) {
			switch directive {
			case "policy":
				policy = rest
			case "nthreads":
				if nThreads, err = strconv.Atoi(rest); err != nil || nThreads < 0 {
					return fmt.Errorf("bad value %q", rest)
				}
			case "ctxs":
				ctxs, err = appendInts(ctxs, rest)
			default:
				err = fmt.Errorf("unknown directive")
			}
			return err
		})
		switch {
		case err != nil:
			return nil, err
		case policy == "":
			return nil, fmt.Errorf("missing policy")
		case nThreads != len(ctxs):
			return nil, fmt.Errorf("nthreads %d but %d ctxs", nThreads, len(ctxs))
		}
		t, err := topologyFor(topoKey)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %w", topoKey, err)
		}
		p, err := place.Reconstruct(t, policy, ctxs)
		if err != nil {
			return nil, err
		}
		return registry.NewEntry(kind, key, p), nil
	case registry.KindMapping:
		var name, dag, algo string
		var assign []int
		cost := int64(-1)
		topoKey, err := readSidecar(r, kind, key, func(directive, rest string) (err error) {
			switch directive {
			case "dagname":
				name = rest
			case "dag":
				dag = rest
			case "algo":
				algo = rest
			case "cost":
				if cost, err = strconv.ParseInt(rest, 10, 64); err != nil || cost < 0 {
					return fmt.Errorf("bad value %q", rest)
				}
			case "assign":
				assign, err = appendInts(assign, rest)
			default:
				err = fmt.Errorf("unknown directive")
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		_, hash, nodes, edges, _, err := registry.ParseMapKey(key)
		switch {
		case err != nil:
			return nil, err
		case dag != dagIdentity(hash, nodes, edges):
			return nil, fmt.Errorf("dag %q is not the key's %q", dag, dagIdentity(hash, nodes, edges))
		case algo == "":
			return nil, fmt.Errorf("missing algo")
		case cost < 0:
			return nil, fmt.Errorf("missing cost")
		case len(assign) != nodes:
			return nil, fmt.Errorf("%d nodes but %d assignments", nodes, len(assign))
		}
		t, err := topologyFor(topoKey)
		if err != nil {
			return nil, fmt.Errorf("topology %q: %w", topoKey, err)
		}
		m, err := taskmap.Reconstruct(t, name, hash, nodes, edges, algo, cost, assign)
		if err != nil {
			return nil, err
		}
		return registry.NewEntry(kind, key, m), nil
	}
	return nil, fmt.Errorf("unknown entry kind %v", kind)
}

// bindKey accepts a file whose #key line names exactly the key it is read
// under.
func bindKey(got, key string) error {
	switch {
	case got == "":
		return fmt.Errorf("no key header")
	case got != key:
		return fmt.Errorf("header names key %q", got)
	}
	return nil
}

// readSidecar reads a sidecar of kind bound to key, handing visit every
// directive but topokey, which must name key's topology. It returns that
// topology's key.
func readSidecar(r io.Reader, kind registry.Kind, key string, visit func(directive, rest string) error) (string, error) {
	var topoKey string
	got, err := topo.ReadFrame(r, magics[kind], func(directive, rest string) error {
		if directive == "topokey" {
			topoKey = rest
			return nil
		}
		return visit(directive, rest)
	})
	if err == nil {
		err = bindKey(got, key)
	}
	if err != nil {
		return "", err
	}
	if parent, ok := kind.ParentKey(key); !ok || topoKey != parent {
		return "", fmt.Errorf("topokey %q is not the key's topology", topoKey)
	}
	return topoKey, nil
}

// appendInts appends a directive's space-separated integers to dst.
func appendInts(dst []int, rest string) ([]int, error) {
	for _, fld := range strings.Fields(rest) {
		v, err := strconv.Atoi(fld)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", fld)
		}
		dst = append(dst, v)
	}
	return dst, nil
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

// Forget drops key's entry.
func (m *TopoMemo) Forget(key string) {
	m.mu.Lock()
	delete(m.m, key)
	m.mu.Unlock()
}
