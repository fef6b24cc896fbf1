package relstore

import (
	"container/list"
	"sync"
)

// BufferCache models the database block buffer cache ("data cache").  The
// paper (§4.5.5) found that a *smaller* data cache improves bulk-load
// performance because the database writer must scan the whole cache each time
// it flushes newly written blocks to disk; the cache therefore reports both
// miss counts and the number of cached pages scanned per flush so the cost
// model can reproduce that effect.
//
// The cache is one shared structure (as in the modeled database) and is
// guarded by a single mutex; MaybeFlushDirty makes the dirty-threshold check
// and the flush one atomic step so concurrent writers cannot double-run the
// database writer for the same batch of dirty pages.
type BufferCache struct {
	mu       sync.Mutex
	capacity int // pages
	lru      *list.List
	index    map[pageKey]*list.Element

	hits     int64
	misses   int64
	evicts   int64
	flushes  int64
	scanWork int64

	dirtySinceFlush int
}

type pageKey struct {
	table string
	page  int
}

type cacheEntry struct {
	key   pageKey
	dirty bool
}

// NewBufferCache creates a cache holding capacity pages (minimum 1).
func NewBufferCache(capacity int) *BufferCache {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferCache{
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[pageKey]*list.Element),
	}
}

// Capacity returns the cache capacity in pages.
func (c *BufferCache) Capacity() int { return c.capacity }

// Len returns the number of pages currently cached.
func (c *BufferCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Touch records an access to the given page, marking it dirty when dirty is
// true.  It returns whether the access missed and how many pages were evicted
// to make room.
func (c *BufferCache) Touch(table string, pageID int, dirty bool) (miss bool, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := pageKey{table: table, page: pageID}
	if el, ok := c.index[k]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		if dirty {
			ent := el.Value.(*cacheEntry)
			if !ent.dirty {
				c.dirtySinceFlush++
			}
			ent.dirty = true
		}
		return false, 0
	}
	c.misses++
	if dirty {
		c.dirtySinceFlush++
	}
	for c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		delete(c.index, ent.key)
		c.lru.Remove(back)
		c.evicts++
		evicted++
	}
	el := c.lru.PushFront(&cacheEntry{key: k, dirty: dirty})
	c.index[k] = el
	return true, evicted
}

// FlushDirty simulates the database writer: it searches the whole allocated
// cache for dirty buffers, clears their dirty flags, and returns
// (dirtyPagesWritten, pagesScanned).  The scan covers the full configured
// capacity — not just the resident pages — which is the mechanism behind the
// paper's §4.5.5 observation that a *smaller* data cache loads faster.
func (c *BufferCache) FlushDirty() (written, scanned int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushDirtyLocked()
}

// flushDirtyLocked is FlushDirty with c.mu already held.
func (c *BufferCache) flushDirtyLocked() (written, scanned int) {
	c.flushes++
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.dirty {
			ent.dirty = false
			written++
		}
	}
	scanned = c.capacity
	c.scanWork += int64(scanned)
	c.dirtySinceFlush = 0
	return written, scanned
}

// MaybeFlushDirty runs the database writer only if at least threshold pages
// were dirtied since the last flush, performing the check and the flush as
// one atomic step.  It reports whether the flush ran.
func (c *BufferCache) MaybeFlushDirty(threshold int) (written, scanned int, flushed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirtySinceFlush < threshold {
		return 0, 0, false
	}
	written, scanned = c.flushDirtyLocked()
	return written, scanned, true
}

// DirtySinceFlush returns the number of dirty-page touches since the database
// writer last ran.
func (c *BufferCache) DirtySinceFlush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirtySinceFlush
}

// CacheStats is a snapshot of buffer-cache counters.
type CacheStats struct {
	Capacity int
	Resident int
	Hits     int64
	Misses   int64
	Evicts   int64
	Flushes  int64
	ScanWork int64
}

// Stats returns a snapshot of the cache counters.
func (c *BufferCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity: c.capacity,
		Resident: c.lru.Len(),
		Hits:     c.hits,
		Misses:   c.misses,
		Evicts:   c.evicts,
		Flushes:  c.flushes,
		ScanWork: c.scanWork,
	}
}
