package main

// The response renderers as they were before the render memo, kept
// verbatim (only renamed) as the oracle of TestBodiesMatchReference: every
// body the memoized handlers serve must equal what these write, modulo the
// served_in value.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	mctop "repro"
	"repro/internal/mctoperr"
	"repro/internal/registry"
	"repro/internal/spool"
	"repro/internal/topo"
)

func refWriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func refWriteErr(w http.ResponseWriter, status int, err error) {
	refWriteJSON(w, status, map[string]string{"error": err.Error()})
}

// writeErrStatus maps err through statusOf and writes it. 503s and 504s —
// the honest refusals of the SLO contract — always carry a Retry-After,
// so a well-behaved client backs off instead of hammering a degraded
// daemon.
func refWriteErrStatus(w http.ResponseWriter, err error) {
	status := statusOf(err)
	if status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	refWriteErr(w, status, err)
}

// decodeBody reads a JSON request body of at most 1 MiB strictly (unknown
// fields are errors) into req; what names the body in error messages.
func refDecodeBody(w http.ResponseWriter, r *http.Request, what string, req any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return fmt.Errorf("%w: %s body over %d bytes", mctoperr.ErrTooLarge, what, tooBig.Limit)
	case err != nil:
		return fmt.Errorf("%w: bad %s body: %v", mctoperr.ErrInvalidRequest, what, err)
	}
	return nil
}

func (s *server) refTopology(w http.ResponseWriter, r *http.Request) {
	platform, seed, opt, err := s.query(r)
	if err != nil {
		refWriteErrStatus(w, err)
		return
	}
	// Validate the format before paying for an inference: a typo must not
	// cost an O(N²) measurement run.
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "mctop", "dot":
	default:
		refWriteErrStatus(w, fmt.Errorf("%w: unknown format %q (json, mctop, dot)", mctoperr.ErrInvalidRequest, format))
		return
	}
	start := time.Now()
	// The request context bounds the inference: a client that disconnects
	// (or whose deadline fires) cancels a cold O(N²) measurement run
	// instead of leaving it to burn CPU for nobody.
	top, cached, err := s.reg.LookupTopologyContext(r.Context(), platform, seed, opt)
	if err != nil {
		refWriteErrStatus(w, err)
		return
	}
	switch format {
	case "mctop":
		// Encode to a buffer first: writing straight to w would commit a
		// 200 before an encoding failure could surface.
		var buf bytes.Buffer
		spec := top.Spec()
		if err := topo.Encode(&buf, &spec); err != nil {
			refWriteErr(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(buf.Bytes())
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		fmt.Fprint(w, top.DotCrossSocket())
	default: // json
		refWriteJSON(w, http.StatusOK, topologyResponse{
			Platform: platform,
			Seed:     seed,
			Contexts: top.NumHWContexts(),
			Cores:    top.NumCores(),
			Sockets:  top.NumSockets(),
			Nodes:    top.NumNodes(),
			SMTWays:  top.SMTWays(),
			Spec:     top.Spec(),
			Cached:   cached,
			ServedIn: time.Since(start).String(),
		})
	}
}

func (s *server) refPlace(w http.ResponseWriter, r *http.Request) {
	platform, seed, opt, err := s.query(r)
	if err != nil {
		refWriteErrStatus(w, err)
		return
	}
	q := r.URL.Query()
	policy := q.Get("policy")
	if policy == "" {
		refWriteErrStatus(w, fmt.Errorf("%w: missing ?policy= (one of: %s)", mctoperr.ErrInvalidRequest, strings.Join(mctop.PolicyNames(), ", ")))
		return
	}
	threads := 0
	if v := q.Get("threads"); v != "" {
		threads, err = strconv.Atoi(v)
		if err != nil || threads < 0 {
			refWriteErrStatus(w, fmt.Errorf("%w: bad threads %q", mctoperr.ErrInvalidRequest, v))
			return
		}
	}
	start := time.Now()
	pl, err := s.reg.PlaceContext(r.Context(), platform, seed, opt, policy, threads)
	if err != nil {
		// statusOf sorts the client's faults (unknown policy → 404, power
		// policy without power measurements or unsatisfiable options →
		// 400) from the server's (500).
		refWriteErrStatus(w, err)
		return
	}
	refWriteJSON(w, http.StatusOK, placeResponse{
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
		ServedIn:     time.Since(start).String(),
	})
}

func (s *server) refPlaceBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		refWriteErr(w, http.StatusMethodNotAllowed, fmt.Errorf("batch placement is POST-only"))
		return
	}
	var req batchRequest
	if err := refDecodeBody(w, r, "batch", &req); err != nil {
		refWriteErrStatus(w, err)
		return
	}
	platform, seed, opt, err := s.resolve(req.topoParams)
	if err != nil {
		refWriteErrStatus(w, err)
		return
	}
	if len(req.Requests) == 0 {
		refWriteErrStatus(w, fmt.Errorf("%w: empty batch: provide at least one {policy, threads} request", mctoperr.ErrInvalidRequest))
		return
	}
	if len(req.Requests) > maxBatchRequests {
		refWriteErrStatus(w, fmt.Errorf("%w: batch of %d requests exceeds the limit of %d", mctoperr.ErrTooLarge, len(req.Requests), maxBatchRequests))
		return
	}
	for i := range req.Requests {
		if req.Requests[i].Threads < 0 {
			refWriteErrStatus(w, fmt.Errorf("%w: request %d: bad threads %d", mctoperr.ErrInvalidRequest, i, req.Requests[i].Threads))
			return
		}
	}
	reqs := make([]mctop.PlaceRequest, len(req.Requests))
	for i, item := range req.Requests {
		reqs[i] = mctop.PlaceRequest{Policy: item.Policy, NThreads: item.Threads}
	}
	if r.URL.Query().Get("stream") == "1" {
		s.streamPlaceBatch(w, r, platform, seed, opt, reqs)
		return
	}
	start := time.Now()
	results, err := s.reg.PlaceBatchContext(r.Context(), platform, seed, opt, reqs)
	if err != nil {
		refWriteErrStatus(w, err)
		return
	}
	resp := batchResponse{
		Platform: platform,
		Seed:     seed,
		Results:  make([]batchItemResponse, len(results)),
	}
	for i, res := range results {
		resp.Results[i] = batchItem(req.Requests[i].Policy, res.Placement, res.Err)
	}
	resp.ServedIn = time.Since(start).String()
	refWriteJSON(w, http.StatusOK, resp)
}

// handleExport is the fleet endpoint: GET /v1/export?key=<registry key>
// serves the entry as its interchange file — a `#key`-headed .mctop
// description file for topology keys, a .place or .map sidecar for
// placement and mapping keys — exactly the bytes the spool tier persists
// (spool.Encode), which is what the remote store tier on an edge daemon
// consumes. The key is parsed back into the request it encodes and
// resolved through the registry, so an origin serves from its cache/spool
// when warm and infers (singleflight, compute semaphore and all) when
// cold: one origin can feed a fleet of edges that never infer. Keys that
// do not round-trip through the registry's own key builder are 404s — they
// cannot name a cache entry this daemon could ever produce.
func (s *server) refExport(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		refWriteErrStatus(w, fmt.Errorf("%w: missing ?key= (a registry topology or placement key)", mctoperr.ErrInvalidRequest))
		return
	}
	kind, ok := registry.KindOfKey(key)
	if !ok {
		refWriteErrStatus(w, noEntryError{fmt.Errorf("%w: key %q is not a topology, placement or mapping key", mctoperr.ErrInvalidRequest, key)})
		return
	}
	val, err := s.refExportValue(r.Context(), kind, key)
	if err != nil {
		refWriteErrStatus(w, err)
		return
	}
	var buf bytes.Buffer
	if err := spool.Encode(&buf, registry.NewEntry(kind, key, val)); err != nil {
		refWriteErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}

// exportValue resolves an export key to the value it names.
func (s *server) refExportValue(ctx context.Context, kind registry.Kind, key string) (any, error) {
	switch kind {
	case registry.KindTopology:
		platform, seed, opt, err := s.exportTopoKey(key)
		if err != nil {
			return nil, err
		}
		t, _, err := s.reg.LookupTopologyContext(ctx, platform, seed, opt)
		return t, err
	case registry.KindPlacement:
		topoKey, policy, threads, err := registry.ParsePlaceKey(key)
		if err != nil {
			return nil, noEntryError{err}
		}
		platform, seed, opt, err := s.exportTopoKey(topoKey)
		if err != nil {
			return nil, err
		}
		return s.reg.PlaceContext(ctx, platform, seed, opt, policy, threads)
	default:
		// Mapping keys identify the DAG by hash alone — the key cannot
		// reconstruct the DAG, so an origin serves mappings warm-only: a
		// mapping somebody POSTed to /v1/map is exportable; one nobody
		// computed is an honest 404 (the edge then computes locally). A
		// key that could never name an entry is a 400, per ParseMapKey's
		// ErrInvalidRequest contract.
		if _, _, _, _, _, err := registry.ParseMapKey(key); err != nil {
			return nil, err
		}
		e, ok := s.reg.Store().Get(kind, key)
		if !ok {
			return nil, noEntryError{fmt.Errorf("mapping %q is not cached on this daemon", key)}
		}
		return e.Val, nil
	}
}

func (s *server) refMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		refWriteErr(w, http.StatusMethodNotAllowed, fmt.Errorf("mapping is POST-only"))
		return
	}
	var req mapRequest
	if err := refDecodeBody(w, r, "map", &req); err != nil {
		refWriteErrStatus(w, err)
		return
	}
	platform, seed, opt, err := s.resolve(req.topoParams)
	if err != nil {
		refWriteErrStatus(w, err)
		return
	}
	if req.Refine < 0 || req.Refine > maxMapRefine {
		refWriteErrStatus(w, fmt.Errorf("%w: bad refine %d (want 0..%d)", mctoperr.ErrInvalidRequest, req.Refine, maxMapRefine))
		return
	}
	if (req.DAG == nil) == (len(req.DAGs) == 0) {
		refWriteErrStatus(w, fmt.Errorf("%w: provide exactly one of \"dag\" or \"dags\"", mctoperr.ErrInvalidRequest))
		return
	}
	if len(req.DAGs) > maxMapDAGs {
		refWriteErrStatus(w, fmt.Errorf("%w: batch of %d DAGs exceeds the limit of %d", mctoperr.ErrTooLarge, len(req.DAGs), maxMapDAGs))
		return
	}

	start := time.Now()
	resp := mapResponse{Platform: platform, Seed: seed, Refine: req.Refine}
	if req.DAG != nil {
		// Single: failures carry a status, like /v1/place.
		if err := validateMapDAG(req.DAG); err != nil {
			refWriteErrStatus(w, err)
			return
		}
		m, err := s.reg.MapDAGContext(r.Context(), platform, seed, opt, req.DAG, req.Refine)
		if err != nil {
			refWriteErrStatus(w, err)
			return
		}
		item := mapItem(req.DAG, m, nil)
		resp.Result = &item
	} else {
		// Batch: per-DAG failures are inline, the batch itself succeeds.
		resp.Results = make([]mapItemResponse, len(req.DAGs))
		for i, d := range req.DAGs {
			if r.Context().Err() != nil {
				refWriteErrStatus(w, r.Context().Err())
				return
			}
			err := validateMapDAG(d)
			var m *mctop.Mapping
			if err == nil {
				m, err = s.reg.MapDAGContext(r.Context(), platform, seed, opt, d, req.Refine)
			}
			resp.Results[i] = mapItem(d, m, err)
		}
	}
	resp.ServedIn = time.Since(start).String()
	refWriteJSON(w, http.StatusOK, resp)
}
