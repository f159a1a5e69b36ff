// The render memo: every 200 body that is a pure function of a cached value
// is rendered once and then served as bytes. A topology, placement or
// mapping the registry answers with keeps, per value, the bytes of each
// form it has been served in — the /v1/topology and /v1/place JSON up to
// their per-request lines, the /v1/place/batch item, and the interchange
// file /v1/export serves (which, minus its #key line, is also
// /v1/topology?format=mctop). A request then pays its registry lookup (so
// tier attribution, LRU recency and the hit counters are what they always
// were) plus the two per-request fields, `cached` and `served_in`, appended
// after the memoized bytes.
//
// POST /v1/map goes one step further: the digest of a raw single-DAG body
// names the mapping its earlier 200 answered, so a repeated body skips the
// JSON decode, DAG validation and DAG hash, and is answered by one
// warm-only registry lookup (Registry.Cached) of that mapping's key.
//
// The memo never keeps a value alive. Entries are keyed by weak pointers
// and dropped by a cleanup once their value is collected, like
// spool.TopoMemo, so what it holds is bounded by what the LRU, in-flight
// requests and the spool's write-behind queue already keep alive.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"unicode/utf8"
	"weak"

	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/spool"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// form names one memoized rendering of a cached value.
type form uint8

const (
	// formJSON is the /v1/topology or /v1/place body up to its first
	// per-request line.
	formJSON form = iota
	// formItem is the /v1/place/batch result item, indented at depth 2.
	formItem
	// formExport is spool.Encode's interchange file: the /v1/export body.
	formExport
	numForms
)

// rendered is one value's memo entry: the registry key its bytes were
// rendered under and each form, filled on first use. A mapping's entry
// also carries the one /v1/map body alias anchored to it.
type rendered struct {
	key   string
	forms [numForms][]byte
	alias *mapAlias
}

// mapAlias resolves a raw /v1/map body by its digest: the registry key of
// the mapping the body asked for and the rendered response up to its
// served_in line. Immutable once built.
type mapAlias struct {
	digest [sha256.Size]byte
	key    string
	body   []byte
	m      weak.Pointer[taskmap.Mapping]
}

// renderMemo is the daemon's render memo (see the file comment). One lock
// guards every map: a hit holds it for one map read.
type renderMemo struct {
	mu      sync.Mutex
	topos   valueMemo[topo.Topology]
	places  valueMemo[place.Placement]
	maps    valueMemo[taskmap.Mapping]
	aliases map[[sha256.Size]byte]*mapAlias
}

// valueMemo is the memo of one value type, guarded by its renderMemo's
// lock. Weak pointers made from the same object compare equal, so the map
// finds a value's entry from any pointer to it.
type valueMemo[T any] struct {
	m map[weak.Pointer[T]]*rendered
	// drop is the cleanup registered on each value: it deletes the value's
	// entry, and the entry's alias, once the value is collected.
	drop func(weak.Pointer[T])
}

func newRenderMemo() *renderMemo {
	c := &renderMemo{aliases: make(map[[sha256.Size]byte]*mapAlias)}
	c.topos = newValueMemo[topo.Topology](c)
	c.places = newValueMemo[place.Placement](c)
	c.maps = newValueMemo[taskmap.Mapping](c)
	return c
}

func newValueMemo[T any](c *renderMemo) valueMemo[T] {
	m := make(map[weak.Pointer[T]]*rendered)
	return valueMemo[T]{m: m, drop: func(wp weak.Pointer[T]) {
		c.mu.Lock()
		defer c.mu.Unlock()
		e, ok := m[wp]
		if !ok || wp.Value() != nil {
			return
		}
		delete(m, wp)
		if a := e.alias; a != nil && c.aliases[a.digest] == a {
			delete(c.aliases, a.digest)
		}
	}}
}

// entry returns v's entry for bytes rendered under key, creating it (and
// registering its cleanup) on first use. A value served under a key other
// than the one its entry records starts over: bytes rendered for another
// key are never served. The caller holds the memo's lock.
func (vm *valueMemo[T]) entry(wp weak.Pointer[T], v *T, key string) *rendered {
	e := vm.m[wp]
	switch {
	case e == nil:
		e = &rendered{key: key}
		vm.m[wp] = e
		// The cleanup's argument is the weak pointer, never v: an argument
		// reachable from v would keep it alive forever.
		runtime.AddCleanup(v, vm.drop, wp)
	case e.key != key:
		e.key, e.forms = key, [numForms][]byte{}
	}
	return e
}

// formOf returns v's form f as rendered under key, rendering it once.
func formOf[T any](c *renderMemo, vm *valueMemo[T], v *T, key string, f form, render func() ([]byte, error)) ([]byte, error) {
	wp := weak.Make(v)
	c.mu.Lock()
	if e := vm.m[wp]; e != nil && e.key == key && e.forms[f] != nil {
		b := e.forms[f]
		c.mu.Unlock()
		return b, nil
	}
	c.mu.Unlock()
	b, err := render()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	vm.entry(wp, v, key).forms[f] = b
	c.mu.Unlock()
	return b, nil
}

// export returns the interchange file of the value under key — what
// /v1/export serves and the spool persists — encoding it once.
func (c *renderMemo) export(kind registry.Kind, key string, val any) ([]byte, error) {
	render := func() ([]byte, error) {
		var buf bytes.Buffer
		if err := spool.Encode(&buf, kind, key, val); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	switch v := val.(type) {
	case *topo.Topology:
		return formOf(c, &c.topos, v, key, formExport, render)
	case *place.Placement:
		return formOf(c, &c.places, v, key, formExport, render)
	case *taskmap.Mapping:
		return formOf(c, &c.maps, v, key, formExport, render)
	}
	return render() // spool.Encode's error for a value of no cached kind
}

// topologyJSON is the /v1/topology body of top under key up to its
// per-request lines.
func (c *renderMemo) topologyJSON(top *topo.Topology, key, platform string, seed uint64) ([]byte, error) {
	return formOf(c, &c.topos, top, key, formJSON, func() ([]byte, error) {
		return jsonPrefix(topologyResponse{
			Platform: platform,
			Seed:     seed,
			Contexts: top.NumHWContexts(),
			Cores:    top.NumCores(),
			Sockets:  top.NumSockets(),
			Nodes:    top.NumNodes(),
			SMTWays:  top.SMTWays(),
			Spec:     top.Spec(),
		}, topologyTail)
	})
}

// placeJSON is the /v1/place body of pl under key up to served_in.
func (c *renderMemo) placeJSON(pl *place.Placement, key, platform string, seed uint64) ([]byte, error) {
	return formOf(c, &c.places, pl, key, formJSON, func() ([]byte, error) {
		return jsonPrefix(placeResponse{
			Platform:     platform,
			Seed:         seed,
			Policy:       pl.PolicyName(),
			NThreads:     pl.NThreads(),
			Contexts:     pl.Contexts(),
			NCores:       pl.NCores(),
			CtxPerSocket: pl.CtxPerSocket(),
			MaxLatency:   pl.MaxLatency(),
			MinBandwidth: pl.MinBandwidth(),
			Report:       pl.String(),
		}, servedInTail)
	})
}

// placeItem is pl's /v1/place/batch result item under key.
func (c *renderMemo) placeItem(pl *place.Placement, key string) ([]byte, error) {
	return formOf(c, &c.places, pl, key, formItem, func() ([]byte, error) {
		return renderItem(batchItem("", pl, nil))
	})
}

// mapBody returns the rendered /v1/map response (up to served_in) of the
// raw body with this digest, if an earlier 200 answered that body and the
// registry still holds the very mapping it answered with. The registry is
// consulted through its warm-only lookup, so the request is attributed and
// counted like any warm lookup; anything else — no alias, an evicted or
// replaced mapping — is a miss and the caller takes the full path. (A
// replaced mapping, one a tier re-decoded while the old value is still
// alive, was already counted as a hit here, so that request counts two.)
func (c *renderMemo) mapBody(ctx context.Context, reg *registry.Registry, digest [sha256.Size]byte) ([]byte, bool) {
	c.mu.Lock()
	a := c.aliases[digest]
	c.mu.Unlock()
	if a == nil {
		return nil, false
	}
	v, ok := reg.Cached(ctx, registry.KindMapping, a.key)
	if !ok {
		return nil, false
	}
	if m, _ := v.(*taskmap.Mapping); m == nil || m != a.m.Value() {
		return nil, false
	}
	return a.body, true
}

// setMapAlias anchors the raw body's digest to mapping m (cached under
// key) and its rendered response, once that response was a 200. A mapping
// keeps at most one alias: a new body for it replaces the old one, so
// variants of one request (whitespace, field order) cannot grow the memo.
func (c *renderMemo) setMapAlias(digest [sha256.Size]byte, key string, m *taskmap.Mapping, body []byte) {
	wp := weak.Make(m)
	a := &mapAlias{digest: digest, key: key, body: body, m: wp}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.maps.entry(wp, m, key)
	if old := e.alias; old != nil && c.aliases[old.digest] == old {
		delete(c.aliases, old.digest)
	}
	e.alias = a
	c.aliases[digest] = a
}

// The per-request end of each JSON body, as the encoder writes the
// response struct with zero-valued per-request fields: jsonPrefix checks
// the rendering ends in it and cuts it off.
const (
	servedInTail  = "  \"served_in\": \"\"\n}\n"
	topologyTail  = "  \"cached\": false,\n" + servedInTail
	servedInField = "  \"served_in\": "
)

// encodeJSON renders v exactly as the daemon's JSON responses are written:
// indented by two spaces, HTML escaping on, newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jsonPrefix renders v and cuts tail, its zero-valued per-request lines.
func jsonPrefix(v any, tail string) ([]byte, error) {
	b, err := encodeJSON(v)
	if err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(b, []byte(tail)) {
		return nil, fmt.Errorf("mctopd: %T does not render its per-request fields last", v)
	}
	return b[:len(b)-len(tail)], nil
}

// renderItem renders one batch result item as it appears inside a batch
// body: at depth 2, without the separator that follows it.
func renderItem(item batchItemResponse) ([]byte, error) {
	b, err := json.MarshalIndent(item, "    ", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte("    "), b...), nil
}

// appendCached appends the topology body's `cached` line.
func appendCached(b []byte, cached bool) []byte {
	if cached {
		return append(b, "  \"cached\": true,\n"...)
	}
	return append(b, "  \"cached\": false,\n"...)
}

// appendServedIn appends the `served_in` line and closes the body.
func appendServedIn(b []byte, servedIn string) []byte {
	b = append(b, servedInField...)
	b = appendJSONString(b, servedIn)
	return append(b, "\n}\n"...)
}

// appendJSONString appends s as a JSON string exactly as the daemon's
// encoder writes one (HTML escaping on). Strings needing no escape — a
// duration, a platform name — are copied; anything else goes through
// encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return appendMarshaled(b, s)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return appendMarshaled(b, s)
		}
		i += size
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendMarshaled(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// writeBody writes a 200 whose body is parts in order.
func writeBody(w http.ResponseWriter, contentType string, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // the client went away
		}
	}
}
