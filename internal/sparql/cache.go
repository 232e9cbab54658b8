package sparql

import (
	"container/list"
	"sync"
)

// DefaultCacheCapacity is the query-result cache bound of a new Engine.
const DefaultCacheCapacity = 256

// CacheStats reports cumulative cache behaviour.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// queryCache is a bounded LRU of query results keyed on query text, each
// entry pinned to the store generation it was computed at. A lookup whose
// generation no longer matches is a miss and evicts the stale entry, so
// live ingestion invalidates the whole cache for free — no subscription,
// no epoch scanning, just the comparison that was needed anyway. The
// cache lives only in memory: snapshots do not carry it, so a restored
// platform starts cold and refills at one execution per distinct query.
type queryCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List               // front = most recently used
	entries   map[string]*list.Element // query text -> element
	hits      uint64
	misses    uint64
	evictions uint64
}

// evict removes one element, counting it in both the local stats and the
// process-wide metrics. Callers hold c.mu.
func (c *queryCache) evict(el *list.Element) {
	c.ll.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
	c.evictions++
	mCacheEvictions.Inc()
}

type cacheEntry struct {
	key string
	gen uint64
	res *Result
}

func newQueryCache(capacity int) *queryCache {
	return &queryCache{cap: capacity, ll: list.New(), entries: map[string]*list.Element{}}
}

func (c *queryCache) get(key string, gen uint64) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		mCacheMisses.Inc()
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		// Stale: computed against a store state that no longer exists.
		c.evict(el)
		c.misses++
		mCacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	mCacheHits.Inc()
	return ent.res, true
}

func (c *queryCache) put(key string, gen uint64, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.gen, ent.res = gen, res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, res: res})
	for c.ll.Len() > c.cap {
		c.evict(c.ll.Back())
	}
}

func (c *queryCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}
