package registry

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// LRU is the in-memory tier: a sharded, LRU-bounded map — the cache the
// registry always had, now behind the Store interface so it can head a
// tiered chain. Keys hash onto independently locked shards, so concurrent
// lookups of different topologies never contend; each shard evicts its
// least-recently-used entries beyond its capacity share.
type LRU struct {
	shards []*lruShard

	puts  atomic.Int64
	kinds KindCounters
}

type lruShard struct {
	mu      sync.Mutex
	cap     int // this shard's share of the entry bound
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type lruEntry struct {
	key  string
	kind Kind
	val  any
}

// NewLRU creates an LRU store bounded to maxEntries entries split across
// nShards independently locked shards (<= 0 picks the defaults: 256
// entries, 8 shards).
func NewLRU(maxEntries, nShards int) *LRU {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	if nShards <= 0 {
		nShards = 8
	}
	if nShards > maxEntries {
		nShards = maxEntries
	}
	l := &LRU{shards: make([]*lruShard, nShards)}
	// Split maxEntries across shards, handing the remainder out one entry
	// at a time so the total capacity is exactly the requested bound.
	base, extra := maxEntries/nShards, maxEntries%nShards
	for i := range l.shards {
		cap := base
		if i < extra {
			cap++
		}
		l.shards[i] = &lruShard{
			cap:     cap,
			entries: make(map[string]*list.Element),
			order:   list.New(),
		}
	}
	return l
}

// fnv1a is FNV-1a over the key, written out: shard and singleflight-stripe
// selection run on every lookup, and the hash/fnv Hasher would cost two
// heap allocations per call on the serving hot path.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (l *LRU) shardOf(key string) *lruShard {
	return l.shards[fnv1a(key)%uint32(len(l.shards))]
}

// Lookup implements Store. Kinds share one namespace: keys are already
// kind-prefixed by the registry.
func (l *LRU) Lookup(_ context.Context, kind Kind, key string) (any, string, bool) {
	s := l.shardOf(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		l.kinds.Miss(kind)
		return nil, "", false
	}
	s.order.MoveToFront(el)
	v := el.Value.(*lruEntry).val
	s.mu.Unlock()
	l.kinds.Hit(kind)
	return v, "lru", true
}

// Put implements Store: insert or replace, evicting beyond the shard cap.
func (l *LRU) Put(kind Kind, key string, val any) {
	s := l.shardOf(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		// Concurrent fills of one key (e.g. two tier promotions racing)
		// replace in place instead of growing the list.
		el.Value.(*lruEntry).val = val
		s.order.MoveToFront(el)
		s.mu.Unlock()
		l.puts.Add(1)
		return
	}
	el := s.order.PushFront(&lruEntry{key: key, kind: kind, val: val})
	s.entries[key] = el
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		e := oldest.Value.(*lruEntry)
		delete(s.entries, e.key)
		l.kinds.Evict(e.kind)
	}
	s.mu.Unlock()
	l.puts.Add(1)
}

// Len implements Store.
func (l *LRU) Len() int {
	n := 0
	for _, s := range l.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Purge implements Store.
func (l *LRU) Purge() {
	for _, s := range l.shards {
		s.mu.Lock()
		s.entries = make(map[string]*list.Element)
		s.order = list.New()
		s.mu.Unlock()
	}
}

// Stats implements Store. The per-kind breakdown walks the shards — Stats
// is an observability call, not a hot path.
func (l *LRU) Stats() []StoreStats {
	st := StoreStats{Tier: "lru", Puts: l.puts.Load()}
	var resident [NumKinds]int
	for _, s := range l.shards {
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			resident[kindIndex(el.Value.(*lruEntry).kind)]++
		}
		s.mu.Unlock()
	}
	l.kinds.Snapshot(&st, resident)
	return []StoreStats{st}
}

// Flush implements Store: memory has nothing to make durable.
func (l *LRU) Flush() error { return nil }

// Close implements Store: memory holds no resources.
func (l *LRU) Close() error { return nil }
