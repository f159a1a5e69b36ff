// Response bodies rendered from cached entries. Every 200 body that is a
// pure function of a cached answer is rendered once, onto the answer's
// registry.Entry, and then served as bytes: the /v1/topology and /v1/place
// JSON up to their per-request lines (the entry's FormJSON), the
// /v1/place/batch item (FormItem), and the interchange file /v1/export
// serves (FormFile, shared with the spool's writer; minus its #key line it
// is also /v1/topology?format=mctop). A request pays its registry lookup —
// tier attribution, LRU recency and the hit counters are what they always
// were — plus the two per-request fields, `cached` and `served_in`,
// appended after the rendered bytes. The registry hands back the entry
// that answered on the request's Served record, and each batch item's on
// its BatchResult, so nothing here rebuilds a registry key, and bytes
// rendered for one key can never be served under another. The forms live
// exactly as long as their entry.
//
// POST /v1/map goes one step further: the digest of a raw single-DAG body
// names the mapping its earlier 200 answered, so a repeated body skips the
// JSON decode, DAG validation and DAG hash, and is answered by one
// warm-only registry lookup (Registry.Cached) of that mapping's key.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/topo"
)

// topologyJSON is the /v1/topology body of the topology entry e up to its
// per-request lines.
func topologyJSON(e *registry.Entry, platform string, seed uint64) ([]byte, error) {
	return e.Form(registry.FormJSON, func() ([]byte, error) {
		top := e.Val.(*topo.Topology)
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

// placeJSON is the /v1/place body of the placement entry e up to
// served_in.
func placeJSON(e *registry.Entry, platform string, seed uint64) ([]byte, error) {
	return e.Form(registry.FormJSON, func() ([]byte, error) {
		pl := e.Val.(*place.Placement)
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

// placeItem is the placement entry e's /v1/place/batch result item.
func placeItem(e *registry.Entry) ([]byte, error) {
	return e.Form(registry.FormItem, func() ([]byte, error) {
		return renderItem(batchItem("", e.Val.(*place.Placement), nil))
	})
}

// maxMapAliases bounds the /v1/map digest index. A full index is dropped
// wholesale, like the remote tier's negative cache: it is a shortcut, and
// a forgotten digest costs one request the full path.
const maxMapAliases = 4096

// mapAliases resolves a raw single-DAG /v1/map body by its digest to the
// registry key of the mapping its earlier 200 answered. The rendered
// response lives on the mapping's entry, as its FormJSON led by the
// digest: one body per entry.
type mapAliases struct {
	mu   sync.Mutex
	keys map[[sha256.Size]byte]string
}

// body looks up the mapping an earlier 200 answered the raw body with this
// digest, through the registry's warm-only lookup, so the request is
// attributed and counted like any warm lookup. It returns the entry, and
// the rendered response (up to served_in) if the entry holds this body's;
// an entry a tier decoded afresh, or that answers another body now, holds
// none. An unknown digest or an evicted mapping returns nothing.
func (a *mapAliases) body(ctx context.Context, reg *registry.Registry, digest [sha256.Size]byte) (*registry.Entry, []byte) {
	a.mu.Lock()
	key, ok := a.keys[digest]
	a.mu.Unlock()
	if !ok {
		return nil, nil
	}
	e, ok := reg.Cached(ctx, registry.KindMapping, key)
	if !ok {
		return nil, nil
	}
	if b := e.Rendered(registry.FormJSON); bytes.HasPrefix(b, digest[:]) {
		return e, b[sha256.Size:]
	}
	return e, nil
}

// set anchors the raw body's digest to the mapping entry e and its
// rendered response, once that response was a 200. An entry keeps one
// body: a new body for it replaces the old one and drops the old digest,
// so variants of one request (whitespace, field order) cannot grow the
// index.
func (a *mapAliases) set(digest [sha256.Size]byte, e *registry.Entry, body []byte) {
	alias := append(append(make([]byte, 0, sha256.Size+len(body)), digest[:]...), body...)
	a.mu.Lock()
	defer a.mu.Unlock()
	if old := e.Rendered(registry.FormJSON); len(old) >= sha256.Size {
		delete(a.keys, [sha256.Size]byte(old[:sha256.Size]))
	}
	if a.keys == nil || len(a.keys) >= maxMapAliases {
		a.keys = make(map[[sha256.Size]byte]string)
	}
	a.keys[digest] = e.Key
	e.SetRendered(registry.FormJSON, alias)
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
