// The task-graph mapping endpoint: POST /v1/map takes a DAG (or a batch
// of DAGs) plus the usual platform/seed/reps parameters and answers with a
// topology-aware task → hardware-context assignment and its estimated
// completion time, computed by internal/taskmap over the memoized topology
// and memoized itself (the registry's third cached kind — a repeated DAG
// is a cache hit whatever it is called, because the cache key carries the
// DAG's canonical hash, not its name).
package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"time"

	mctop "repro"
	"repro/internal/mctoperr"
	"repro/internal/registry"
)

const (
	// maxMapNodes / maxMapEdges bound one DAG: Estimate is O(nodes +
	// edges) per refinement probe, so an unbounded DAG times an unbounded
	// refine budget is an unbounded amount of work behind one response
	// deadline.
	maxMapNodes = 512
	maxMapEdges = 8192
	// maxMapDAGs bounds one batch, like maxBatchRequests bounds placements.
	maxMapDAGs = 64
	// maxMapRefine bounds the refinement budget a request can demand
	// (cost-model evaluations, each O(nodes + edges)).
	maxMapRefine = 100000
)

// mapRequest is the POST /v1/map body. Exactly one of DAG (single) or
// DAGs (batch) must be set.
type mapRequest struct {
	topoParams
	Refine int              `json:"refine,omitempty"`
	DAG    *mctop.TaskDAG   `json:"dag,omitempty"`
	DAGs   []*mctop.TaskDAG `json:"dags,omitempty"`
}

// mapItemResponse is one mapping answer: the assignment and its cost, or
// an inline error (batch items fail individually, like place/batch items).
type mapItemResponse struct {
	DAG        string `json:"dag,omitempty"`
	Error      string `json:"error,omitempty"`
	DAGHash    string `json:"dag_hash,omitempty"`
	Nodes      int    `json:"nodes,omitempty"`
	Edges      int    `json:"edges,omitempty"`
	Algo       string `json:"algo,omitempty"`
	CostCycles int64  `json:"cost_cycles,omitempty"`
	Assignment []int  `json:"assignment,omitempty"`
}

type mapResponse struct {
	Platform string            `json:"platform"`
	Seed     uint64            `json:"seed"`
	Refine   int               `json:"refine"`
	Result   *mapItemResponse  `json:"result,omitempty"`  // single
	Results  []mapItemResponse `json:"results,omitempty"` // batch
	ServedIn string            `json:"served_in"`
}

// validateMapDAG applies the daemon's size bounds before the registry sees
// the DAG; structural validity (dense IDs, acyclicity, ...) is the
// registry's job and reports ErrInvalidRequest itself.
func validateMapDAG(d *mctop.TaskDAG) error {
	if d == nil {
		return fmt.Errorf("%w: missing dag", mctoperr.ErrInvalidRequest)
	}
	if len(d.Nodes) > maxMapNodes {
		return fmt.Errorf("%w: DAG of %d nodes exceeds the limit of %d", mctoperr.ErrTooLarge, len(d.Nodes), maxMapNodes)
	}
	if len(d.Edges) > maxMapEdges {
		return fmt.Errorf("%w: DAG of %d edges exceeds the limit of %d", mctoperr.ErrTooLarge, len(d.Edges), maxMapEdges)
	}
	return nil
}

func mapItem(d *mctop.TaskDAG, m *mctop.Mapping, err error) mapItemResponse {
	item := mapItemResponse{}
	if d != nil {
		item.DAG = d.Name
	}
	if err != nil {
		item.Error = err.Error()
		return item
	}
	item.DAGHash = fmt.Sprintf("%016x", m.DAGHash())
	item.Nodes = m.NumNodes()
	item.Edges = m.NumEdges()
	item.Algo = m.Algo()
	item.CostCycles = m.Cost()
	item.Assignment = m.Assignment()
	return item
}

func (s *server) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("mapping is POST-only"))
		return
	}
	body, err := readBody(w, r, "map")
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	// A single-DAG body answered before is answered again from its
	// rendered bytes: one warm registry lookup, no decode, DAG validation
	// or DAG hash. The daemon's defaults are fixed for its lifetime, so the
	// full path below would answer exactly these bytes. An entry found
	// without them (a tier decoded it afresh) is still this body's mapping,
	// so the full path renders it instead of looking it up again.
	digest := sha256.Sum256(body)
	start := time.Now()
	e, b := s.maps.body(r.Context(), s.reg, digest)
	if b != nil {
		writeBody(w, "application/json", b, appendServedIn(make([]byte, 0, 48), time.Since(start).String()))
		return
	}
	var req mapRequest
	if err := decodeStrict(body, "map", &req); err != nil {
		writeErrStatus(w, err)
		return
	}
	platform, seed, opt, err := s.resolve(req.topoParams)
	if err != nil {
		writeErrStatus(w, err)
		return
	}
	if req.Refine < 0 || req.Refine > maxMapRefine {
		writeErrStatus(w, fmt.Errorf("%w: bad refine %d (want 0..%d)", mctoperr.ErrInvalidRequest, req.Refine, maxMapRefine))
		return
	}
	if (req.DAG == nil) == (len(req.DAGs) == 0) {
		writeErrStatus(w, fmt.Errorf("%w: provide exactly one of \"dag\" or \"dags\"", mctoperr.ErrInvalidRequest))
		return
	}
	if len(req.DAGs) > maxMapDAGs {
		writeErrStatus(w, fmt.Errorf("%w: batch of %d DAGs exceeds the limit of %d", mctoperr.ErrTooLarge, len(req.DAGs), maxMapDAGs))
		return
	}

	start = time.Now()
	resp := mapResponse{Platform: platform, Seed: seed, Refine: req.Refine}
	if req.DAG != nil {
		// Single: failures carry a status, like /v1/place.
		if err := validateMapDAG(req.DAG); err != nil {
			writeErrStatus(w, err)
			return
		}
		if e == nil {
			ctx, sv := registry.ContextWithServed(r.Context())
			if _, err := s.reg.MapDAGContext(ctx, platform, seed, opt, req.DAG, req.Refine); err != nil {
				writeErrStatus(w, err)
				return
			}
			e = sv.Entry
		}
		item := mapItem(req.DAG, e.Val.(*mctop.Mapping), nil)
		resp.Result = &item
		b, err := jsonPrefix(resp, servedInTail)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeBody(w, "application/json", b, appendServedIn(make([]byte, 0, 48), time.Since(start).String()))
		s.maps.set(digest, e, b)
		return
	}
	// Batch: per-DAG failures are inline, the batch itself succeeds. Each
	// batch renders per request.
	resp.Results = make([]mapItemResponse, len(req.DAGs))
	for i, d := range req.DAGs {
		if r.Context().Err() != nil {
			writeErrStatus(w, r.Context().Err())
			return
		}
		err := validateMapDAG(d)
		var m *mctop.Mapping
		if err == nil {
			m, err = s.reg.MapDAGContext(r.Context(), platform, seed, opt, d, req.Refine)
		}
		resp.Results[i] = mapItem(d, m, err)
	}
	resp.ServedIn = time.Since(start).String()
	writeJSON(w, http.StatusOK, resp)
}
