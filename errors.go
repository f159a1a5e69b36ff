package mctop

import "repro/internal/mctoperr"

// The sentinel errors of the client API. Every user-correctable failure
// the library returns wraps exactly one of these, so callers branch with
// errors.Is instead of string matching:
//
//	_, err := reg.PlaceContext(ctx, "Nope", 42, opt, "RR_CORE", 8)
//	switch {
//	case errors.Is(err, mctop.ErrUnknownPlatform): // 404-shaped
//	case errors.Is(err, mctop.ErrInvalidRequest):  // 400-shaped
//	}
//
// cmd/mctopd maps them to HTTP statuses in one place (400, 404, 413, 503).
var (
	// ErrUnknownPlatform: the platform is not one of the five simulated
	// machines (returned by Infer, the Registry, and sim.ByName).
	ErrUnknownPlatform = mctoperr.ErrUnknownPlatform
	// ErrUnknownPolicy: the policy name is not one of the 12 Table 2
	// builtins (returned by ResolvePolicy and the Registry's string-keyed
	// placements).
	ErrUnknownPolicy = mctoperr.ErrUnknownPolicy
	// ErrInvalidRequest: a malformed or unsatisfiable request the caller
	// can correct (negative threads, POWER without power data, …).
	ErrInvalidRequest = mctoperr.ErrInvalidRequest
	// ErrTooLarge: the request exceeds a configured size bound.
	ErrTooLarge = mctoperr.ErrTooLarge
	// ErrSaturated: the server shed the request under backpressure;
	// retry later.
	ErrSaturated = mctoperr.ErrSaturated
)
