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
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	StaleHits int64 // lookups that found an entry invalidated by a newer epoch
	Evictions int64 // capacity evictions (stale evictions count under StaleHits)
	Stores    int64
	Entries   int
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

// NewCache creates a cache with the given shard count (rounded up to a power
// of two, minimum 1) and per-shard entry capacity.
func NewCache(shards, entriesPerShard int) *Cache {
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

// Get returns the cached result for the key if present and still valid for
// the current commit epoch of its table.  A stale entry is evicted and
// reported as a miss.
func (c *Cache) Get(db Epochs, key string) (queries.Result, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return queries.Result{}, false
	}
	ent := el.Value.(*cacheEntry)
	if db.TableEpoch(ent.table) != ent.epoch {
		// Superseded by a commit or rollback: evict so a later Put can
		// install the fresh epoch's result.
		delete(s.entries, key)
		s.lru.Remove(el)
		s.mu.Unlock()
		c.staleHits.Add(1)
		return queries.Result{}, false
	}
	s.lru.MoveToFront(el)
	res := ent.res
	s.mu.Unlock()
	c.hits.Add(1)
	return res, true
}

// Put stores a result computed at the given stable epoch of the table.  The
// caller must have obtained (epoch, cacheable=true) from Engine.Read; Put
// double-checks that the epoch is still current and refuses the store
// otherwise, so a result that went stale between computation and store never
// enters the cache.
func (c *Cache) Put(db Epochs, key, table string, epoch int64, res queries.Result) bool {
	if db.TableEpoch(table) != epoch {
		return false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.epoch = epoch
		ent.res = res
		s.lru.MoveToFront(el)
		c.overwrites.Add(1)
		return true
	}
	for s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		delete(s.entries, oldest.Value.(*cacheEntry).key)
		s.lru.Remove(oldest)
		c.evictions.Add(1)
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, table: table, epoch: epoch, res: res})
	c.stores.Add(1)
	return true
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		StaleHits: c.staleHits.Load(),
		Evictions: c.evictions.Load(),
		Stores:    c.stores.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return st
}
