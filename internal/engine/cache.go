package engine

import (
	"container/list"
	"sync"
)

// CacheStats is a point-in-time snapshot of cache counters. An entry holds
// the ascending prefix of a result that some query paged — as many docs as
// its limit asked for — plus the full count, so a lookup hits when the
// prefix is complete or at least as long as the page it wants. A lookup for
// a longer page than the entry holds is a plain miss (counted in Misses,
// not Stale), and its re-execution replaces the entry with the longer
// prefix.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Stale counts lookups that found an entry but could not serve it
	// because of a generation mismatch in either direction: the entry was
	// computed before the lookup's generation (a mutation or rebuild
	// superseded it; the entry is dropped) or after it (the lookup raced a
	// mutation and snapshotted early; the entry stays). Every stale lookup
	// is also counted as a miss — Hits+Misses is the total lookup count and
	// Stale ⊆ Misses tells mutation-driven misses apart from capacity ones.
	Stale uint64 `json:"stale"`
	// DroppedPuts counts inserts discarded because their generation was
	// superseded before the put landed (the computation raced a mutation).
	// Under sustained mutation load this is why entries never materialize;
	// without it those puts are silently indistinguishable from successful
	// ones that were then evicted.
	DroppedPuts uint64 `json:"dropped_puts"`
	Entries     int    `json:"entries"`
	Capacity    int    `json:"capacity"`
}

// cache is a mutex-guarded LRU of query results keyed by the normalized
// query string. Values are treated as immutable: get returns the cached
// slice without copying, so callers must not modify it.
//
// An entry is a result prefix: the first docs of the result, ascending, as
// many as the query that computed it paged (all of them for an unlimited
// query, none for a count), plus the full count. It serves every page no
// longer than the prefix, and every page at all once the prefix is
// complete. At one generation only a longer prefix replaces an entry, so a
// short page never pushes out a long one.
//
// Every entry is stamped with the engine's index generation at the time the
// result was computed (snapshotted BEFORE the shard state was read). A
// lookup presents the current generation; an entry from an older generation
// is deleted and reported as a miss — this is what guarantees that a cached
// result can never resurrect a deleted document: any mutation bumps the
// generation, so results computed against pre-mutation shard state become
// unservable the moment the mutation lands.
type cache struct {
	mu          sync.Mutex
	cap         int
	ll          *list.List // front = most recently used
	items       map[string]*list.Element
	hits        uint64
	misses      uint64
	evictions   uint64
	stale       uint64
	droppedPuts uint64
	// maxGen is the newest index generation this cache has seen (every
	// lookup presents the current one). Inserts stamped older are dropped:
	// they could never be served, and at capacity they would evict a
	// servable entry.
	maxGen uint64
}

type cacheEntry struct {
	key   string
	docs  []uint32 // ascending prefix of the result
	count int      // full result size; len(docs) == count when complete
	gen   uint64   // index generation the result was computed at
}

// newCache returns an LRU holding at most capacity entries, or nil when
// capacity <= 0 (caching disabled; the engine treats a nil cache as a
// permanent miss).
func newCache(capacity int) *cache {
	if capacity <= 0 {
		return nil
	}
	return &cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

// get returns the cached prefix and full count for key if the entry was
// computed at the current index generation gen and covers a page of limit
// docs: the prefix is complete, or limit is non-negative and the prefix is
// at least limit long. An entry from an older generation is deleted and
// counted as stale; one too short for the page is a plain miss.
func (c *cache) get(key string, gen uint64, limit int) ([]uint32, int, bool) {
	if c == nil {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.maxGen {
		c.maxGen = gen
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		// Older than the lookup's generation: unservable forever, drop it.
		// Newer (the lookup raced a mutation and snapshotted early): still
		// servable to current-generation lookups, so keep it. Both
		// directions are generation staleness, not capacity misses.
		if e.gen < gen {
			c.ll.Remove(el)
			delete(c.items, key)
		}
		c.stale++
		c.misses++
		return nil, 0, false
	}
	if len(e.docs) < e.count && (limit < 0 || len(e.docs) < limit) {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return e.docs, e.count, true
}

// put stores a result prefix docs of a count-doc result computed at index
// generation gen. A put from behind the newest generation any lookup has
// presented is dropped — the entry could never be served, and inserting it
// at capacity would evict a servable one. Remaining staleness (a mutation
// landing after the last lookup) is resolved lazily at get time. At the
// entry's own generation a put replaces it only with a longer prefix.
func (c *cache) put(key string, docs []uint32, count int, gen uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.maxGen {
		c.maxGen = gen
	}
	if gen < c.maxGen {
		c.droppedPuts++
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		if gen < e.gen {
			c.droppedPuts++
			return
		}
		if gen > e.gen || len(docs) > len(e.docs) {
			e.docs, e.count, e.gen = docs, count, gen
		}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, docs: docs, count: count, gen: gen})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *cache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Stale:       c.stale,
		DroppedPuts: c.droppedPuts,
		Entries:     c.ll.Len(),
		Capacity:    c.cap,
	}
}
