// Package mctop is a Go reproduction of "Abstracting Multi-Core Topologies
// with MCTOP" (Chatzopoulos, Guerraoui, Harris, Trigonakis — EuroSys 2017).
//
// MCTOP is a portable multi-core topology abstraction enriched with
// measured communication latencies, memory latencies and bandwidths, cache
// parameters and power figures. It is generated automatically by
// MCTOP-ALG, which infers the machine's structure from nothing but
// context-to-context latency measurements, exploiting the determinism of
// cache-coherence protocols.
//
// This package is the client API — the Go shape of the paper's MCTOP-LIB
// (Section 5). Its pieces:
//
//   - Infer / InferDetailed — context-aware inference of one of the five
//     simulated platforms, tuned by functional options (WithReps,
//     WithParallelism, WithSampling); cancelling the context aborts
//     the O(N²) measurement phase.
//   - Policy — the composable placement-policy interface. The 12 builtin
//     policies of Table 2 (ConHWC, RRCore, …) implement it; combinators
//     (Limit, OnSockets, Reverse) wrap any Policy into a new one, and an
//     application's own Policy places by value (NewAlloc,
//     Registry.PlaceWithContext). Only the builtins resolve by name
//     (ResolvePolicy, mctopd's ?policy=).
//   - Alloc — the mctop_alloc mirror: a topology-aware thread allocator
//     applications hold, offering Pin/Unpin per thread id and the
//     Figure 7 report.
//   - Registry — the concurrency-safe, LRU-bounded topology service layer
//     with context-aware lookups (LookupTopologyContext, PlaceContext,
//     PlaceBatchContext), the backend of cmd/mctopd. Its cache is one
//     chain of Store tiers headed by its in-memory LRU: WithSpoolDir adds
//     a description-file spool below it, so a restarted process
//     warm-starts from disk with zero re-inferences.
//   - Structured errors — ErrUnknownPlatform, ErrUnknownPolicy,
//     ErrInvalidRequest, ErrTooLarge, ErrSaturated — that errors.Is
//     matches through every layer; cmd/mctopd maps them to HTTP statuses
//     in one place.
//
// Quick start:
//
//	top, err := mctop.Infer(ctx, "Ivy", 42)                 // simulate + infer + enrich
//	pol := mctop.OnSockets(mctop.RRCore, 0).Limit(8)        // compose a policy
//	alloc, err := mctop.NewAlloc(top, pol)                  // the mctop_alloc object
//	hwc, err := alloc.Pin(0)                                // thread 0's context
//	fmt.Print(alloc.Report())                               // the Figure 7 report
//
// Serving topologies (what cmd/mctopd builds on). Note the registry keeps
// the zero-value Options semantics — paper defaults, n = 2000 reps — so
// pass WithReps explicitly for the facade's fast 201-rep configuration
// (and to share cache entries with Infer's results):
//
//	reg := mctop.NewRegistry(256)                           // LRU bound
//	opt := mctop.NewOptions(mctop.WithReps(201))
//	top, _, err := reg.LookupTopologyContext(ctx, "Ivy", 42, opt)
//	pl, err := reg.PlaceContext(ctx, "Ivy", 42, opt, "RR_CORE", 8)
//
// The heavy lifting lives in the internal packages:
//
//   - internal/sim       — deterministic simulators of the paper's five
//     machines (Ivy, Westmere, Haswell, Opteron, SPARC T4-4)
//   - internal/machine   — the OS-facing measurement interface (simulator
//     and best-effort Linux host backends)
//   - internal/mctopalg  — the inference algorithm (Section 3)
//   - internal/topo      — the MCTOP representation, description files,
//     Graphviz output (Section 2)
//   - internal/plugins   — memory/cache/power enrichment (Section 4)
//   - internal/place     — MCTOP-PLACE: the 12 placement policies, the
//     Policy interface and combinators (Section 6)
//   - internal/mctoperr  — the sentinel errors of the client API
//   - internal/registry  — the topology service layer (the paper's
//     "created once, then used to load the topology" deployment model,
//     Section 2) over one tier chain headed by its LRU, and the
//     simulate → infer → enrich pipeline its misses and Infer run
//   - internal/spool     — the description-file persistence tier behind
//     WithSpoolDir and mctopd's -spool-dir
//   - internal/remote    — the fleet tier behind WithUpstream and mctopd's
//     -upstream: an edge daemon pulls description files from an origin
//     instead of inferring locally
//   - internal/locks, internal/contend, internal/msort, internal/reduce,
//     internal/mapreduce, internal/graph, internal/omp — the
//     portable-optimization case studies (Sections 5 and 7)
package mctop

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/remote"
	"repro/internal/sim"
	"repro/internal/spool"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// Topology is the MCTOP abstraction (see internal/topo for the full API).
type Topology = topo.Topology

// Placement is an MCTOP-PLACE thread placement (see internal/place).
type Placement = place.Placement

// InferResult carries an inference's topology and the intermediate
// artifacts of the algorithm's four steps. Its RawTable stores each context
// pair's median once: RawTable.N() is the context count and
// RawTable.At(x, y) a pair's latency, 0 on the diagonal; CSV prints it as
// Figure 6's n×n table. Figure 6's normalized table is not an artifact: it
// is RawTable read through Clusters, which Heatmap renders.
type InferResult = mctopalg.Result

// Platforms lists the names of the five simulated machines of the paper's
// evaluation.
func Platforms() []string {
	var out []string
	for _, p := range sim.Platforms() {
		out = append(out, p.Name)
	}
	return out
}

// Options tunes inference; see mctopalg.Options. It carries the
// repetitions per pair, the measurement worker pool and the sampled mode;
// the zero value runs the paper's n = 2000 repetitions, and the rest of
// Section 3.5 (the 7%-14% stdev thresholds, the clustering gaps) is fixed.
// Prefer building it with NewOptions and the With* functional options.
type Options = mctopalg.Options

// Load reads a topology from an MCTOP description file.
func Load(path string) (*Topology, error) { return topo.LoadFile(path) }

// Save writes a topology's description file ("created once, then used to
// load the topology", Section 2).
func Save(path string, t *Topology) error { return topo.SaveFile(path, t) }

// PolicyNames lists the 12 builtin placement policies.
func PolicyNames() []string {
	var out []string
	for _, p := range place.Policies() {
		out = append(out, p.String())
	}
	return out
}

// Validate cross-checks a topology against an OS view (Section 3.6) and
// returns human-readable divergences; empty means agreement.
func Validate(t *Topology, osCoreOfCtx, osSocketOfCtx, osNodeOfSocket []int) []string {
	return t.CompareOS(osCoreOfCtx, osSocketOfCtx, osNodeOfSocket)
}

// Registry is a concurrency-safe, LRU-bounded cache of inferred topologies
// and derived placements, keyed by (platform, seed, options). Concurrent
// misses on one key collapse into a single resolution (singleflight): one
// walk of the tiers below the LRU, then at most one inference; hits
// are lock-cheap map lookups, orders of magnitude faster than re-running
// MCTOP-ALG. The *Context methods honor cancellation and deadlines. See
// internal/registry for the full API and semantics.
type Registry = registry.Registry

// PlaceRequest is one (policy, threads) pair of a Registry.PlaceBatchContext call:
// many placement requests answered against a single topology lookup (what
// mctopd's POST /v1/place/batch endpoint builds on).
type PlaceRequest = registry.PlaceRequest

// BatchResult is one Registry.PlaceBatchContext answer: a placement or the
// per-request error that produced none.
type BatchResult = registry.BatchResult

// TaskDAG is a task graph for the mapping service (see internal/graph):
// nodes carry compute weights in cycles, edges carry communication volumes
// in bytes.
type TaskDAG = graph.TaskDAG

// Mapping is a task-graph → hardware-context assignment with its
// estimated completion time (see internal/taskmap).
type Mapping = taskmap.Mapping

// RegistryOption configures NewRegistry beyond the entry bound.
type RegistryOption func(*registryConfig)

type registryConfig struct {
	tiers    []registry.Store
	upstream string
}

// WithSpoolDir adds a description-file spool in dir (created if needed)
// below the registry's LRU: every inferred topology and computed placement
// is persisted as it is cached, and a future registry over the same dir —
// a restarted daemon — serves them from disk with zero re-inferences. The
// spool is opened inside NewRegistry, which panics if the directory cannot
// be created or scanned.
func WithSpoolDir(dir string) RegistryOption {
	return func(c *registryConfig) {
		sp, err := spool.New(dir)
		if err != nil {
			panic(fmt.Sprintf("mctop: opening spool: %v", err))
		}
		c.tiers = append(c.tiers, sp)
	}
}

// WithUpstream chains a remote tier under all the registry's other tiers,
// whatever the option order: a key that misses every other tier is
// fetched from the mctopd at originURL via its /v1/export endpoint before
// falling back to local inference — the fleet deployment where one origin
// infers and every edge serves cached description files. The remote tier
// never fails: a down, slow or corrupt origin degrades to local
// re-inference, with negative caching and backoff so an unreachable origin
// costs one failed dial per window rather than per-request latency.
func WithUpstream(originURL string) RegistryOption {
	return func(c *registryConfig) { c.upstream = originURL }
}

// NewRegistry creates a topology registry whose LRU holds exactly
// maxEntries cached values (topologies, placements and mappings each count
// as one; <= 0 uses the default of 256). Misses run the full simulate →
// infer → enrich pipeline under the caller's context. The LRU heads the
// registry's one tier chain; options add tiers below it: WithSpoolDir
// persists the cache as description files so a restart warm-starts from
// disk, and WithUpstream fetches misses from an origin mctopd before
// inferring locally. Registries with a persistent tier should be Flush()ed
// (or Close()d) before process exit.
func NewRegistry(maxEntries int, opts ...RegistryOption) *Registry {
	var c registryConfig
	for _, o := range opts {
		o(&c)
	}
	if c.upstream != "" {
		c.tiers = append(c.tiers, remote.New(c.upstream))
	}
	return registry.New(registry.Options{MaxEntries: maxEntries, Tiers: c.tiers})
}
