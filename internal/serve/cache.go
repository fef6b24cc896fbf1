package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"skyloader/internal/queries"
)

// Cache is a sharded LRU result cache keyed by query signature and
// invalidated by table commit epochs.
//
// Ownership rules (see PERFORMANCE.md, "Result-cache ownership"):
//
//   - An entry may only be stored with an epoch obtained from Engine.Read
//     reporting cacheable (for a database: relstore.DB.SnapshotRead reporting
//     stable) — a result computed while a loader transaction was in flight,
//     or across a commit, must never be memoized, because the engine makes
//     rows visible at insert time.
//   - Get re-validates the entry's epoch against the table's current commit
//     epoch on every hit and evicts on mismatch, so a commit (or rollback)
//     anywhere in the loading pipeline invalidates every affected result at
//     the moment it settles, with no invalidation fan-out on the write path.
//   - Cached results are shared snapshots: callers must treat
//     queries.Result slices as immutable.
//   - An entry may carry its result's response body (the bytes a transport
//     sends for it), stored by the same Put under the same epoch check and
//     evicted with the result, so a body is never older than its result and
//     never outlives it.  It is as immutable as the result.
//
// Sharding keeps the lock a query worker takes for a lookup independent of
// most other workers; each shard has its own mutex, map and LRU list.
type Cache struct {
	shards []cacheShard

	hits       atomic.Int64
	misses     atomic.Int64
	staleHits  atomic.Int64
	evictions  atomic.Int64
	stores     atomic.Int64
	overwrites atomic.Int64
	bodyBytes  atomic.Int64
}

// Epochs reports a table's current commit epoch: a relstore.DB, or any Engine.
type Epochs interface {
	TableEpoch(table string) int64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	cap     int
}

type cacheEntry struct {
	key   string
	table string
	epoch int64
	res   queries.Result
	body  []byte
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	StaleHits int64 // lookups that found an entry invalidated by a newer epoch
	Evictions int64 // capacity evictions (stale evictions count under StaleHits)
	Stores    int64
	Entries   int
	BodyBytes int64 // response-body bytes held by the entries
}

// HitRate returns hits / lookups (0 when no lookups happened).  Stale hits
// count as misses: the entry existed but could not be served.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.StaleHits
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// newCache creates a cache with the given shard count (rounded up to a power
// of two, minimum 1) and per-shard entry capacity.
func newCache(shards, entriesPerShard int) *Cache {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if entriesPerShard < 1 {
		entriesPerShard = 1
	}
	c := &Cache{shards: make([]cacheShard, n)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			entries: make(map[string]*list.Element, entriesPerShard),
			lru:     list.New(),
			cap:     entriesPerShard,
		}
	}
	return c
}

// shardFor hashes a key to its shard (FNV-1a).
func (c *Cache) shardFor(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&uint64(len(c.shards)-1)]
}

// Get returns the cached result for the key, and the body stored with it
// (nil if none was), if present and still valid for the current commit epoch
// of its table.  A stale entry is evicted and reported as a miss.
func (c *Cache) Get(db Epochs, key string) (queries.Result, []byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return queries.Result{}, nil, false
	}
	ent := el.Value.(*cacheEntry)
	if db.TableEpoch(ent.table) != ent.epoch {
		// Superseded by a commit or rollback: evict so a later Put can
		// install the fresh epoch's result.
		s.remove(c, el)
		s.mu.Unlock()
		c.staleHits.Add(1)
		return queries.Result{}, nil, false
	}
	s.lru.MoveToFront(el)
	res, body := ent.res, ent.body
	s.mu.Unlock()
	c.hits.Add(1)
	return res, body, true
}

// Put stores a result computed at the given stable epoch of the table, with
// its response body (nil for none).  The caller must have obtained (epoch,
// cacheable=true) from Engine.Read; Put double-checks that the epoch is still
// current and refuses the store otherwise, so a result that went stale
// between computation and store never enters the cache, and neither does its
// body.  The cache owns body from then on.
func (c *Cache) Put(db Epochs, key, table string, epoch int64, res queries.Result, body []byte) bool {
	if db.TableEpoch(table) != epoch {
		return false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bodyBytes.Add(int64(len(body) - len(ent.body)))
		ent.epoch, ent.res, ent.body = epoch, res, body
		s.lru.MoveToFront(el)
		c.overwrites.Add(1)
		return true
	}
	for s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.remove(c, oldest)
		c.evictions.Add(1)
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, table: table, epoch: epoch, res: res, body: body})
	c.bodyBytes.Add(int64(len(body)))
	c.stores.Add(1)
	return true
}

// remove drops an entry, its body bytes with it; the shard lock is held.
func (s *cacheShard) remove(c *Cache, el *list.Element) {
	ent := el.Value.(*cacheEntry)
	delete(s.entries, ent.key)
	s.lru.Remove(el)
	c.bodyBytes.Add(-int64(len(ent.body)))
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		StaleHits: c.staleHits.Load(),
		Evictions: c.evictions.Load(),
		Stores:    c.stores.Load(),
		BodyBytes: c.bodyBytes.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return st
}
