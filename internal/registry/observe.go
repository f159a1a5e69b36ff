package registry

// Request-scoped and registry-scoped observability hooks. The registry is
// the layer that knows which tier answered a lookup and how long a compute
// ran; servers (mctopd) attach here to label request logs and feed
// duration histograms without the registry importing any metrics package.

import (
	"context"
	"time"
)

// Served is the per-request attribution record a server threads through
// the context: the registry fills Tier with the name of the store tier
// that answered ("lru", "spool", "remote", …), "computed" when the value
// was computed by this call, or "coalesced" when the call waited on
// another caller's in-flight resolution (its walk of the tiers below the
// LRU or its computation), and Entry with the entry that answered —
// what a server renders the response from. It is written by the request's
// own goroutine during the lookup; read it only after the registry call
// returns. After a failed call Entry may name an entry a nested lookup
// answered with.
type Served struct {
	Tier  string
	Entry *Entry
}

type servedCtxKey struct{}

// ContextWithServed returns a context carrying a Served record for the
// registry to fill: ctx's own if it already carries one, so a handler
// reaches the record its server's middleware installed, else a fresh one.
func ContextWithServed(ctx context.Context) (context.Context, *Served) {
	if sv, _ := ctx.Value(servedCtxKey{}).(*Served); sv != nil {
		return ctx, sv
	}
	sv := &Served{}
	return context.WithValue(ctx, servedCtxKey{}, sv), sv
}

// Observer receives a compute-duration callback after every executed
// topology inference, computed placement and computed task-graph mapping,
// labelled by the kind computed (cache hits invoke nothing). The callback
// runs on the computing goroutine and must be cheap and concurrency-safe —
// a histogram observation, not a syscall.
type Observer struct {
	OnCompute func(kind Kind, d time.Duration, err error)
}

// Instrument installs (or replaces) the registry's observer. Safe to call
// while the registry serves; a nil observer detaches.
func (r *Registry) Instrument(o *Observer) {
	r.observer.Store(o)
}

// begin counts one executed compute of kind and starts its clock.
func (r *Registry) begin(kind Kind) time.Time {
	r.computed[kind].Add(1)
	return time.Now()
}

// observe reports a finished compute to the observer, if one is attached.
func (r *Registry) observe(kind Kind, start time.Time, err error) {
	if o := r.observer.Load(); o != nil && o.OnCompute != nil {
		o.OnCompute(kind, time.Since(start), err)
	}
}
