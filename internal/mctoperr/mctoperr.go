// Package mctoperr defines the sentinel errors of the MCTOP client API.
//
// Every user-correctable failure across the library wraps exactly one of
// these sentinels, so callers branch with errors.Is/errors.As instead of
// string matching, and servers map failures to transport statuses in one
// place (cmd/mctopd does: 400, 404, 413, 503). The package sits at the
// bottom of the dependency graph — it imports nothing — so every layer
// (sim, place, registry, the facade, the daemon) can wrap its sentinels
// without cycles.
package mctoperr

import "errors"

var (
	// ErrUnknownPlatform marks a request for a platform name that is not
	// one of the five simulated machines. Servers map it to 404.
	ErrUnknownPlatform = errors.New("unknown platform")

	// ErrUnknownPolicy marks a placement request naming a policy that is
	// not one of the 12 paper policies. Servers map it to 404.
	ErrUnknownPolicy = errors.New("unknown policy")

	// ErrInvalidRequest marks a malformed or unsatisfiable request the
	// caller can correct: negative thread counts, out-of-range reps, the
	// POWER policy on a machine without power measurements, a combinator
	// referencing a socket the topology does not have. Servers map it
	// to 400.
	ErrInvalidRequest = errors.New("invalid request")

	// ErrTooLarge marks a request that exceeds a configured size bound
	// (batch length, body bytes). Distinct from ErrInvalidRequest so
	// servers can answer 413 and clients can shrink-and-retry.
	ErrTooLarge = errors.New("request too large")

	// ErrSaturated marks a request shed by backpressure: the server is at
	// its concurrent-request bound and the caller should retry later.
	// Servers map it to 503 with a Retry-After hint.
	ErrSaturated = errors.New("server saturated")
)
