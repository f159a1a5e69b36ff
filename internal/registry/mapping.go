package registry

// Task-graph mappings — the third cached kind. A mapping request is
// (topology inputs, DAG, refine budget); the DAG itself is identified in
// the cache key by its canonical hash plus node/edge counts, so two
// requests for structurally identical DAGs — whatever their names or edge
// listing order — share one entry, exactly like placements share entries
// across batch and single-request traffic. Mapping computes are ungated
// by the compute semaphore for the same reason placements are: a mapping
// miss computes its topology through LookupTopologyContext, and gating
// both levels would deadlock the nested inference.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/mctoperr"
	"repro/internal/taskmap"
	"repro/internal/topo"
	"repro/internal/trace"
)

// MapFunc computes a task-graph mapping on a cache miss. The default is
// taskmap.Map; tests substitute counting or failing implementations, and
// the daemon wraps it for fault injection (the registry.map point).
type MapFunc func(ctx context.Context, t *topo.Topology, d *graph.TaskDAG, opt taskmap.Options) (*taskmap.Mapping, error)

// mapKey extends a topology key with the DAG identity (canonical hash,
// node and edge counts) and the refine budget. Append-built like TopoKey:
// one is assembled per mapping request on the serving hot path.
func mapKey(tk string, hash uint64, nodes, edges, refine int) string {
	b := make([]byte, 0, len(tk)+48)
	b = append(b, mapPrefix...)
	b = append(b, tk...)
	b = append(b, '|')
	b = appendHash16(b, hash)
	b = append(b, "|n"...)
	b = strconv.AppendInt(b, int64(nodes), 10)
	b = append(b, "|e"...)
	b = strconv.AppendInt(b, int64(edges), 10)
	b = append(b, "|r"...)
	b = strconv.AppendInt(b, int64(refine), 10)
	return string(b)
}

// appendHash16 renders a DAG hash as fixed-width lowercase hex — fixed
// width so keys are visually alignable and the parser is strict.
func appendHash16(b []byte, h uint64) []byte {
	const hex = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b = append(b, hex[(h>>(uint(i)*4))&0xf])
	}
	return b
}

// MapKey is the registry's cache key for a task-graph mapping — exported
// for tools that install or look up mapping sidecars in a spool under the
// exact key a serving registry uses.
func MapKey(platform string, seed uint64, opt mctopalg.Options, d *graph.TaskDAG, refineBudget int) string {
	return mapKey(TopoKey(platform, seed, opt), d.Hash(), len(d.Nodes), len(d.Edges), refineBudget)
}

// ParseMapKey inverts MapKey: it recovers the embedded topology key, the
// DAG hash and dimensions, and the refine budget. Strict like
// ParseTopoKey/ParsePlaceKey — the parsed fields must re-serialize to the
// exact input — and every failure wraps mctoperr.ErrInvalidRequest, so a
// daemon resolving an export request for a malformed mapping key answers
// 400, not 404 (the key could never name an entry, as opposed to naming
// one that is absent).
func ParseMapKey(key string) (topoK string, hash uint64, nodes, edges, refine int, err error) {
	fail := func(format string, args ...any) (string, uint64, int, int, int, error) {
		return "", 0, 0, 0, 0, fmt.Errorf("%w: bad mapping key %q: %s",
			mctoperr.ErrInvalidRequest, key, fmt.Sprintf(format, args...))
	}
	rest, ok := strings.CutPrefix(key, mapPrefix)
	if !ok {
		return fail("missing map| prefix")
	}
	// The last three |-fields are n<nodes>, e<edges>, r<refine>; the hash
	// precedes them and the topology key (which may contain '|') is the
	// remainder.
	var tail [3]string
	for i := 2; i >= 0; i-- {
		j := strings.LastIndexByte(rest, '|')
		if j < 0 {
			return fail("missing dimension fields")
		}
		tail[i] = rest[j+1:]
		rest = rest[:j]
	}
	j := strings.LastIndexByte(rest, '|')
	if j < 0 {
		return fail("missing DAG hash")
	}
	topoK, hashStr := rest[:j], rest[j+1:]
	if len(hashStr) != 16 || strings.ToLower(hashStr) != hashStr {
		return fail("DAG hash %q is not 16 lowercase hex digits", hashStr)
	}
	hash, perr := strconv.ParseUint(hashStr, 16, 64)
	if perr != nil {
		return fail("bad DAG hash %q", hashStr)
	}
	dims := []struct {
		tag  string
		into *int
	}{{"n", &nodes}, {"e", &edges}, {"r", &refine}}
	for i, d := range dims {
		v, ok := strings.CutPrefix(tail[i], d.tag)
		if !ok || v == "" {
			return fail("dimension field %d is not %s-tagged", i, d.tag)
		}
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 {
			return fail("bad %s field %q", d.tag, v)
		}
		*d.into = n
	}
	if nodes < 1 {
		return fail("zero nodes")
	}
	if _, _, _, terr := ParseTopoKey(topoK); terr != nil {
		return fail("embedded topology key: %v", terr)
	}
	if mapKey(topoK, hash, nodes, edges, refine) != key {
		return fail("does not round-trip")
	}
	return topoK, hash, nodes, edges, refine, nil
}

// MapDAGContext returns the memoized mapping of the DAG onto the memoized
// topology for (platform, seed, opt) with the given refine budget, with
// LookupTopologyContext's cancellation semantics. The DAG is validated before
// the cache is consulted, so an invalid DAG can never occupy a singleflight
// slot or alias an entry by hash.
func (r *Registry) MapDAGContext(ctx context.Context, platform string, seed uint64, opt mctopalg.Options, d *graph.TaskDAG, refineBudget int) (*taskmap.Mapping, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil task DAG", mctoperr.ErrInvalidRequest)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if refineBudget < 0 {
		return nil, fmt.Errorf("%w: negative refine budget %d", mctoperr.ErrInvalidRequest, refineBudget)
	}
	key := MapKey(platform, seed, opt, d, refineBudget)
	e, _, err := r.get(ctx, KindMapping, key, func(ctx context.Context) (any, error) {
		ctx, msp := trace.Start(ctx, "registry.map")
		msp.SetInt("nodes", int64(len(d.Nodes)))
		msp.SetInt("edges", int64(len(d.Edges)))
		defer msp.End()
		t, _, err := r.LookupTopologyContext(ctx, platform, seed, opt)
		if err != nil {
			msp.SetError(err)
			return nil, err
		}
		start := r.begin(KindMapping)
		m, err := r.mapFn(ctx, t, d, taskmap.Options{RefineBudget: refineBudget})
		r.observe(KindMapping, start, err)
		msp.SetError(err)
		return m, err
	})
	if err != nil {
		return nil, err
	}
	return e.Val.(*taskmap.Mapping), nil
}
