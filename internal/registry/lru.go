package registry

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// LRU is the in-memory tier: one mutex, one recency list, an exact entry
// bound — the head of every registry's tier chain. The lock covers a map
// lookup and a list splice; at the daemon's request rates its occupancy is
// well under 1 %.
type LRU struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // each element's Value is the *Entry
	order   *list.List               // front = most recently used

	puts  atomic.Int64
	kinds KindCounters
}

// NewLRU creates an LRU store holding exactly maxEntries entries before it
// evicts the least recently used (<= 0 picks the default, 256).
func NewLRU(maxEntries int) *LRU {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	return &LRU{
		cap:     maxEntries,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Lookup implements Store. Kinds share one namespace: keys are already
// kind-prefixed by the registry.
func (l *LRU) Lookup(_ context.Context, kind Kind, key string) (*Entry, string, bool) {
	l.mu.Lock()
	el, ok := l.entries[key]
	if !ok {
		l.mu.Unlock()
		l.kinds.Miss(kind)
		return nil, "", false
	}
	l.order.MoveToFront(el)
	e := el.Value.(*Entry)
	l.mu.Unlock()
	l.kinds.Hit(kind)
	return e, "lru", true
}

// Put implements Store: insert or replace, evicting beyond the bound.
func (l *LRU) Put(e *Entry) {
	l.mu.Lock()
	if el, ok := l.entries[e.Key]; ok {
		// Concurrent fills of one key (e.g. two tier promotions racing)
		// replace in place instead of growing the list.
		el.Value = e
		l.order.MoveToFront(el)
		l.mu.Unlock()
		l.puts.Add(1)
		return
	}
	l.entries[e.Key] = l.order.PushFront(e)
	for l.order.Len() > l.cap {
		old := l.order.Remove(l.order.Back()).(*Entry)
		delete(l.entries, old.Key)
		l.kinds.Evict(old.Kind)
	}
	l.mu.Unlock()
	l.puts.Add(1)
}

// Len implements Store.
func (l *LRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Len()
}

// Stats implements Store. The per-kind breakdown walks the list — Stats is
// an observability call, not a hot path.
func (l *LRU) Stats() []StoreStats {
	st := StoreStats{Tier: "lru", Puts: l.puts.Load()}
	var resident [NumKinds]int
	l.mu.Lock()
	for el := l.order.Front(); el != nil; el = el.Next() {
		resident[kindIndex(el.Value.(*Entry).Kind)]++
	}
	l.mu.Unlock()
	l.kinds.Snapshot(&st, resident)
	return []StoreStats{st}
}

// Flush implements Store: memory has nothing to make durable.
func (l *LRU) Flush() error { return nil }

// Close implements Store: memory holds no resources.
func (l *LRU) Close() error { return nil }
