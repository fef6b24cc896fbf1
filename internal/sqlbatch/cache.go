package sqlbatch

import (
	"container/list"
	"sync"

	"skyloader/internal/relstore"
)

// dirtyFlushPages is the number of newly dirtied pages after which the
// database writer runs, searching the whole data cache for them (§4.5.5).
const dirtyFlushPages = 32

// dataCache models the server's block buffer cache ("data cache").  The paper
// (§4.5.5) found that a *smaller* data cache loads faster because the
// database writer scans the whole cache each time it flushes newly written
// blocks, so the model reports the pages each flush scanned beside the
// misses.  The engine reports the pages each insert call wrote; all
// connections of a server share its cache, and one mutex makes the touches,
// the dirty-threshold check and the flush one step, so concurrent
// connections cannot double-run the writer for the same pages.
type dataCache struct {
	mu       sync.Mutex
	capacity int        // pages
	lru      *list.List // of *cachedPage, most recently used first
	index    map[pageKey]*list.Element

	dirtySinceFlush       int
	hits, misses, flushes int64
}

type pageKey struct {
	table string
	page  int
}

type cachedPage struct {
	key   pageKey
	dirty bool
}

// newDataCache creates a cache holding capacity pages (minimum 1).
func newDataCache(capacity int) *dataCache {
	return &dataCache{capacity: max(capacity, 1), lru: list.New(), index: make(map[pageKey]*list.Element)}
}

// write touches the pages an insert call wrote into table, then runs the
// database writer if dirtyFlushPages pages were dirtied since it last ran.
// It returns the misses and the pages the writer scanned (0 when it did not
// run).
func (c *dataCache) write(table string, rep relstore.OpReport) (misses, scanned int) {
	if rep.RowsInserted == 0 {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := rep.FirstPage; p <= rep.LastPage; p++ {
		if c.touch(pageKey{table: table, page: p}) {
			misses++
		}
	}
	if c.dirtySinceFlush >= dirtyFlushPages {
		_, scanned = c.flushLocked()
	}
	return misses, scanned
}

// touch makes page k the most recently used and dirty, evicting the least
// recently used page to make room on a miss; c.mu must be held.
func (c *dataCache) touch(k pageKey) (miss bool) {
	if el, ok := c.index[k]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		if pg := el.Value.(*cachedPage); !pg.dirty {
			pg.dirty = true
			c.dirtySinceFlush++
		}
		return false
	}
	c.misses++
	c.dirtySinceFlush++
	if c.lru.Len() >= c.capacity {
		back := c.lru.Back()
		delete(c.index, back.Value.(*cachedPage).key)
		c.lru.Remove(back)
	}
	c.index[k] = c.lru.PushFront(&cachedPage{key: k, dirty: true})
	return true
}

// flush runs the database writer: it cleans every dirty page and returns how
// many it wrote and how many pages it scanned — the full configured
// capacity, not just the resident pages, which is the §4.5.5 mechanism.
func (c *dataCache) flush() (written, scanned int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// flushLocked is flush with c.mu already held.
func (c *dataCache) flushLocked() (written, scanned int) {
	c.flushes++
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if pg := el.Value.(*cachedPage); pg.dirty {
			pg.dirty = false
			written++
		}
	}
	c.dirtySinceFlush = 0
	return written, c.capacity
}
