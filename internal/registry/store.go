package registry

import (
	"context"
	"strings"
	"sync/atomic"
)

// The tiered topology store. The registry's cache sits behind the Store
// interface so deployments can compose storage tiers: the default is the
// in-memory LRU (lru.go); a daemon that must survive restarts chains it
// over internal/spool's description-file tier (NewTiered), the
// paper's "created once, then used to load the topology" artifact turned
// into a cache level. The registry itself only sees Lookup/Put —
// singleflight, counters and the compute semaphore stay above the store.
// What every tier holds and returns is an *Entry (entry.go): one answer,
// with the byte forms it has been rendered in.

// Kind tags what a cache entry holds, so persistent tiers can pick a
// serialization per entry kind (topologies become .mctop description
// files, placements a compact sidecar) without inspecting values.
type Kind int

const (
	// KindTopology entries hold a *topo.Topology.
	KindTopology Kind = iota
	// KindPlacement entries hold a *place.Placement.
	KindPlacement
	// KindMapping entries hold a *taskmap.Mapping.
	KindMapping

	// NumKinds sizes per-kind arrays (counters, residency).
	NumKinds
)

// The key prefixes are constants of their own because the key builders
// (TopoKey, placeKey, mapKey) use them too, and the parent-key functions in
// kindTable parse those keys.
const (
	topoPrefix  = "topo|"
	placePrefix = "place|"
	mapPrefix   = "map|"
)

// kindRow is everything the tier chain needs to know about one cached
// kind. Adding a kind is one row here plus its arm in the interchange
// codec (internal/spool/codec.go).
type kindRow struct {
	name   string // what /v1/stats and /metrics label the kind with
	prefix string // leads every registry key of the kind
	ext    string // spool file extension
	// parent extracts the key of the topology a derived entry was computed
	// on; nil for kinds that depend on nothing.
	parent func(key string) (string, bool)
}

var kindTable = [NumKinds]kindRow{
	KindTopology:  {name: "topology", prefix: topoPrefix, ext: ".mctop"},
	KindPlacement: {name: "placement", prefix: placePrefix, ext: ".place", parent: topoKeyOfPlaceKey},
	KindMapping:   {name: "mapping", prefix: mapPrefix, ext: ".map", parent: topoKeyOfMapKey},
}

var unknownKind = kindRow{name: "unknown"}

func (k Kind) row() *kindRow {
	if k >= 0 && k < NumKinds {
		return &kindTable[k]
	}
	return &unknownKind
}

func (k Kind) String() string { return k.row().name }

// Ext is the spool file extension of this kind (".mctop", …).
func (k Kind) Ext() string { return k.row().ext }

// ParentKey extracts the key of the topology the entry under key was
// computed on. ok is false for kinds that have no parent (topologies) and
// for keys that are not of this kind.
func (k Kind) ParentKey(key string) (parent string, ok bool) {
	if fn := k.row().parent; fn != nil {
		return fn(key)
	}
	return "", false
}

// KindOfKey is the kind whose prefix leads key.
func KindOfKey(key string) (Kind, bool) {
	for k := Kind(0); k < NumKinds; k++ {
		if strings.HasPrefix(key, kindTable[k].prefix) {
			return k, true
		}
	}
	return 0, false
}

// KindOfExt is the kind spooled under the file extension ext.
func KindOfExt(ext string) (Kind, bool) {
	for k := Kind(0); k < NumKinds; k++ {
		if kindTable[k].ext == ext {
			return k, true
		}
	}
	return 0, false
}

// Store is one cache tier of the registry. Implementations must be safe
// for concurrent use; Lookup and Put run on the serving hot path. A Store
// never computes — a miss is just ok == false — and never fails: a
// persistent tier that cannot read or write an entry treats it as a miss
// (logging the reason) so a broken disk degrades to re-inference, never to
// serving errors.
type Store interface {
	// Lookup returns the cached *Entry for key and the name of the tier
	// that held it ("lru", "spool", "remote") — what served-by-tier request
	// logs and metrics label their samples with. The context carries
	// tracing (spool decodes and remote fetches become spans of the
	// request), never cancellation a tier must act on.
	Lookup(ctx context.Context, kind Kind, key string) (val any, tier string, ok bool)
	// Put inserts or replaces the entry for key; val is the *Entry of
	// that kind and key.
	Put(kind Kind, key string, val any)
	// Len returns the number of entries resident in this store.
	Len() int
	// Stats snapshots the store's counters, one element per tier.
	Stats() []StoreStats
	// Flush blocks until every accepted Put is durable; tiers without
	// buffered writes return nil.
	Flush() error
	// Close flushes and releases the tier's resources (background writers,
	// directory handles). Lookups keep working; later Puts may be dropped.
	// Close is idempotent.
	Close() error
}

// StoreStats is one tier's counter snapshot.
type StoreStats struct {
	// Tier names the store implementation ("lru", "spool").
	Tier string `json:"tier"`
	// Hits / Misses count Lookup outcomes on this tier.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts write-throughs (including tier promotions).
	Puts int64 `json:"puts"`
	// Evictions counts entries dropped by a capacity bound.
	Evictions int64 `json:"evictions"`
	// Errors counts entries a persistent tier failed to read or write
	// (each one logged and degraded to a miss or dropped write).
	Errors int64 `json:"errors"`
	// Quarantined counts undecodable files a persistent tier moved aside
	// (the spool's quarantine/ directory) so they stop being rescanned
	// every restart. A nonzero value means on-disk corruption happened.
	Quarantined int64 `json:"quarantined,omitempty"`
	// Entries is the current resident entry count; Topologies, Placements
	// and Mappings break it down per entry kind.
	Entries    int `json:"entries"`
	Topologies int `json:"topologies"`
	Placements int `json:"placements"`
	Mappings   int `json:"mappings"`
	// Kinds breaks the Lookup/eviction counters down per entry kind
	// ("topology", "placement", "mapping") — what per-kind hit-ratio
	// dashboards consume via mctopd's /metrics.
	Kinds map[string]KindStats `json:"kinds,omitempty"`
}

// KindStats is one entry kind's share of a tier's counters.
type KindStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// KindCounters is the per-kind atomic counter block every tier embeds: one
// slot per Kind, a single atomic add per Lookup outcome or eviction. A
// tier's hit/miss/eviction totals are the sums over kinds, so nothing is
// counted twice.
type KindCounters struct {
	hits      [NumKinds]atomic.Int64
	misses    [NumKinds]atomic.Int64
	evictions [NumKinds]atomic.Int64
}

// kindIndex folds out-of-range kinds onto slot 0 so a counter add can
// never index out of bounds.
func kindIndex(k Kind) int {
	if k >= 0 && k < NumKinds {
		return int(k)
	}
	return 0
}

func (c *KindCounters) Hit(k Kind)   { c.hits[kindIndex(k)].Add(1) }
func (c *KindCounters) Miss(k Kind)  { c.misses[kindIndex(k)].Add(1) }
func (c *KindCounters) Evict(k Kind) { c.evictions[kindIndex(k)].Add(1) }

// Snapshot fills st's hit/miss/eviction totals, its residency fields and
// its per-kind breakdown. resident is the tier's current entry count per
// kind — only the tier knows its residency.
func (c *KindCounters) Snapshot(st *StoreStats, resident [NumKinds]int) {
	st.Kinds = make(map[string]KindStats, NumKinds)
	for k := Kind(0); k < NumKinds; k++ {
		ks := KindStats{
			Hits:      c.hits[k].Load(),
			Misses:    c.misses[k].Load(),
			Evictions: c.evictions[k].Load(),
			Entries:   resident[k],
		}
		st.Kinds[k.String()] = ks
		st.Hits += ks.Hits
		st.Misses += ks.Misses
		st.Evictions += ks.Evictions
		st.Entries += ks.Entries
	}
	st.Topologies = resident[KindTopology]
	st.Placements = resident[KindPlacement]
	st.Mappings = resident[KindMapping]
}

// Tiered chains stores into one read-through/write-through Store: Lookup
// consults tiers in order and promotes a lower-tier hit into every tier
// above it (a cold LRU miss that hits the disk spool decodes once and is
// then served from memory); Put writes through to every tier. The registry
// always holds one — a bare store is a chain of one.
type Tiered struct {
	tiers []Store
}

// NewTiered composes tiers, fastest first. Nil tiers are skipped; at least
// one non-nil tier is required.
func NewTiered(tiers ...Store) *Tiered {
	t := &Tiered{}
	for _, s := range tiers {
		if s != nil {
			t.tiers = append(t.tiers, s)
		}
	}
	if len(t.tiers) == 0 {
		panic("registry: NewTiered needs at least one tier")
	}
	return t
}

// Lookup implements Store: read-through with promotion, reporting the tier
// that actually held the entry so a traced request attributes its time to
// the tier that did the work.
func (t *Tiered) Lookup(ctx context.Context, kind Kind, key string) (any, string, bool) {
	for i, s := range t.tiers {
		if v, tier, ok := s.Lookup(ctx, kind, key); ok {
			for j := 0; j < i; j++ {
				t.tiers[j].Put(kind, key, v)
			}
			return v, tier, true
		}
	}
	return nil, "", false
}

// Get is Lookup without a request: the context-free read of key's *Entry
// for tools that reach into a registry's store (Registry.Store) outside
// any request — untraced, unattributed.
func (t *Tiered) Get(kind Kind, key string) (any, bool) {
	v, _, ok := t.Lookup(context.Background(), kind, key)
	return v, ok
}

// Put implements Store: write-through of the entry to every tier.
func (t *Tiered) Put(kind Kind, key string, val any) {
	for _, s := range t.tiers {
		s.Put(kind, key, val)
	}
}

// Len implements Store: the entry count of the fastest tier (what is
// servable without tier promotion); per-tier counts are in Stats.
func (t *Tiered) Len() int { return t.tiers[0].Len() }

// Stats implements Store: the concatenated per-tier snapshots, fastest
// tier first.
func (t *Tiered) Stats() []StoreStats {
	out := make([]StoreStats, 0, len(t.tiers))
	for _, s := range t.tiers {
		out = append(out, s.Stats()...)
	}
	return out
}

// Flush implements Store across the chain.
func (t *Tiered) Flush() error { return t.each(Store.Flush) }

// Close implements Store across the chain.
func (t *Tiered) Close() error { return t.each(Store.Close) }

// each runs fn on every tier — a failing tier does not stop the rest — and
// reports the first failure.
func (t *Tiered) each(fn func(Store) error) error {
	var first error
	for _, s := range t.tiers {
		if err := fn(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}
