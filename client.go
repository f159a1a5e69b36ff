package mctop

import (
	"context"

	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/sim"
)

// Policy is the composable placement-policy interface of the client API
// (internal/place.Orderer): the 12 builtin policies of Table 2 implement
// it, combinators wrap any Policy into a new one, and applications
// implement it to plug in their own mapping strategies.
type Policy = place.Orderer

// PolicyChain is a Policy with fluent combinator methods, so compositions
// read left to right: mctop.OnSockets(mctop.RRCore, 0).Limit(8).
type PolicyChain = place.Chain

// The 12 builtin placement policies of Table 2, usable wherever a Policy
// is expected (NewAlloc, combinators, Registry.PlaceWithContext).
const (
	None           = place.None
	Sequential     = place.Sequential
	ConHWC         = place.ConHWC
	ConCoreHWC     = place.ConCoreHWC
	ConCore        = place.ConCore
	BalanceHWC     = place.BalanceHWC
	BalanceCoreHWC = place.BalanceCoreHWC
	BalanceCore    = place.BalanceCore
	RRCore         = place.RRCore
	RRHWC          = place.RRHWC
	PowerPolicy    = place.PowerPolicy
	RRScale        = place.RRScale
)

// Limit caps a policy's placement order at n slots.
func Limit(p Policy, n int) PolicyChain { return place.Limit(p, n) }

// OnSockets restricts a policy to contexts on the given sockets,
// preserving the base policy's order among them.
func OnSockets(p Policy, ids ...int) PolicyChain { return place.OnSockets(p, ids...) }

// Reverse inverts a policy's order: the contexts the base policy would use
// last come first.
func Reverse(p Policy) PolicyChain { return place.Reverse(p) }

// ResolvePolicy returns the builtin policy for a name: one of the 12 of
// Table 2, with or without the MCTOP_PLACE_ prefix, case-insensitive.
// Unknown names wrap ErrUnknownPolicy. Composed and user policies place by
// value (NewAlloc, Registry.PlaceWithContext).
func ResolvePolicy(name string) (Policy, error) {
	p, err := place.Resolve(name)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Infer simulates one of the paper's machines with the given noise seed,
// runs MCTOP-ALG on it and enriches the result with all four plugins. The
// context cancels the O(N²) measurement phase between pairs; a cancelled
// inference returns ctx.Err(). Unknown platforms wrap ErrUnknownPlatform.
func Infer(ctx context.Context, platform string, seed uint64, opts ...Option) (*Topology, error) {
	t, _, err := InferDetailed(ctx, platform, seed, opts...)
	return t, err
}

// InferDetailed is Infer with access to the intermediate artifacts of the
// algorithm's four steps (everything Figure 6 shows).
func InferDetailed(ctx context.Context, platform string, seed uint64, opts ...Option) (*Topology, *InferResult, error) {
	o := NewOptions(opts...)
	if o.Reps == 0 {
		o.Reps = 201 // the facade's fast default; WithReps overrides
	}
	return inferPlatform(ctx, platform, seed, o)
}

// inferPlatform is the simulate → infer → enrich pipeline behind Infer and
// the Registry's compute path; opt is used exactly as given.
func inferPlatform(ctx context.Context, name string, seed uint64, opt Options) (*Topology, *InferResult, error) {
	p, err := sim.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	m, err := machine.NewSim(p, seed)
	if err != nil {
		return nil, nil, err
	}
	res, err := mctopalg.InferContext(ctx, m, opt)
	if err != nil {
		return nil, nil, err
	}
	enriched, err := plugins.Enrich(m, res.Topology, nil)
	if err != nil {
		return nil, nil, err
	}
	res.Topology = enriched
	res.Enriched = true
	return enriched, res, nil
}

// InferHostContext runs MCTOP-ALG on the real host, best effort: the Go
// runtime adds far more noise than the paper's C implementation tolerates,
// so the result is illustrative (and may fail with a clustering error on
// noisy machines — retry, as Section 3.5 prescribes). Like the platform
// entry points it runs the enrichment plugins over the inferred topology;
// since host probes are noisy, enrichment is best-effort too — on plugin
// failure the raw topology is returned with Result.Enriched left false.
func InferHostContext(ctx context.Context, opts ...Option) (*Topology, *InferResult, error) {
	m := machine.NewHost()
	res, err := mctopalg.InferContext(ctx, m, NewOptions(opts...))
	if err != nil {
		return nil, nil, err
	}
	if enriched, eerr := plugins.Enrich(m, res.Topology, nil); eerr == nil {
		res.Topology = enriched
		res.Enriched = true
	}
	return res.Topology, res, nil
}
