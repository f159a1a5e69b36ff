package mctop

import "repro/internal/place"

// Option configures an inference in the client API — the functional
// replacement for filling the raw Options struct by hand. Options built
// this way hash stably into registry cache keys: the registry normalizes
// before keying, so NewOptions(WithReps(201)) and a hand-built
// Options{Reps: 201} share one cache entry.
type Option func(*Options)

// WithReps sets the repetitions per context pair (the paper's n; its
// default is 2000, the facade's fast default is 201).
func WithReps(n int) Option {
	return func(o *Options) { o.Reps = n }
}

// WithParallelism bounds the worker pool of the measurement phase on
// fork-capable machines. It never changes the inferred topology — only how
// fast it is inferred — and is therefore excluded from registry cache keys.
func WithParallelism(n int) Option {
	return func(o *Options) { o.Parallelism = n }
}

// WithSampling enables the sub-O(N²) sampled measurement phase on
// fork-capable machines with at least 64 hardware contexts: latency
// signatures against a small pilot set cluster the contexts, one verified
// representative pair is measured per cluster pair, and the rest of each
// block is filled with its value — falling back to exhaustive measurement
// per block (or wholesale, on noisy platforms) whenever verification
// disagrees. The mode is part of the cache key; on platforms below the
// context floor it changes nothing. Its parameters are fixed: n/64 pilots
// clamped to [8, 64], a floor of 64 contexts, 6 probes per block.
func WithSampling() Option {
	return func(o *Options) { o.Sampling = true }
}

// NewOptions builds an inference Options value from functional options.
// Unset fields keep their zero values, which the pipeline (and the
// registry's key normalization) resolves to the paper defaults.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// PlaceOptions tunes a placement — the options a Policy's Order method
// receives (see internal/place.Options). Exported so applications can
// implement Policy outside this module's internal packages.
type PlaceOptions = place.Options

// PlaceOption configures a placement or Alloc.
type PlaceOption func(*place.Options)

// WithThreads sets how many threads to place (0 = as many as the policy
// allows).
func WithThreads(n int) PlaceOption {
	return func(o *place.Options) { o.NThreads = n }
}

// WithSockets limits how many sockets the placement may use (0 = all).
func WithSockets(n int) PlaceOption {
	return func(o *place.Options) { o.NSockets = n }
}
