package engine

import (
	"container/list"
	"strings"
	"sync"

	"kwsdbg/internal/obs"
)

// DefaultPlanCacheSize is the entry bound used when a cache's size has not
// been configured. Handles are small (a bound query plus one plan), so the
// default is generous enough that a server's working set of probe shapes
// never thrashes.
const DefaultPlanCacheSize = 4096

// PreparedCache is a thread-safe LRU of Prepared handles keyed by a
// caller-chosen identity — canonical SQL text for the engine's own cache, a
// probe-identity key for the debugger's. Entries need no stamp of their own:
// a Prepared revalidates its plan against its footprint in the engine's
// version vector on every execution, so an entry outliving an INSERT is cheap
// to keep (it re-plans once, and only if the write touched its tables) and
// never wrong. A max of 0 disables the cache (Get always misses,
// Put drops); negative means unbounded.
type PreparedCache struct {
	// path labels this cache's samples in the shared kwsdbg_plan_cache_*
	// metric families: "text" for the SQL-keyed engine cache, "prepared"
	// for the debugger's handle cache.
	path string

	mu  sync.Mutex
	max int
	// ll is the recency list. guarded by mu.
	ll *list.List
	// items indexes ll by key. guarded by mu.
	items map[string]*list.Element

	// hits, misses, and evictions feed Stats. guarded by mu.
	hits, misses, evictions int64

	// Metric children are resolved once at construction: path is fixed per
	// instance, and Get sits on the per-probe hot path where Vec.With's
	// lock-and-label-key resolution costs ~2 allocations per call.
	mHits, mMisses, mEvictions *obs.Counter
	mEntries                   *obs.Gauge
}

type planEntry struct {
	key string
	p   *Prepared
}

// NewPreparedCache returns an LRU bounded to max entries, reporting metrics
// under the given path label.
func NewPreparedCache(max int, path string) *PreparedCache {
	return &PreparedCache{
		path:       path,
		max:        max,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		mHits:      mPlanCacheHits.With(path),
		mMisses:    mPlanCacheMisses.With(path),
		mEvictions: mPlanCacheEvictions.With(path),
		mEntries:   mPlanCacheEntries.With(path),
	}
}

// Get returns the cached handle for key, or nil.
//
//kws:hotpath
func (c *PreparedCache) Get(key string) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		c.mMisses.Inc()
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits++
	c.mHits.Inc()
	return el.Value.(*planEntry).p
}

// Put stores a handle under key, evicting the least recently used entries
// beyond the bound. Storing an existing key refreshes its handle and recency.
func (c *PreparedCache) Put(key string, p *Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max == 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*planEntry).p = p
		c.ll.MoveToFront(el)
		return
	}
	key = strings.Clone(key) // a probe key may be a substring of a larger table
	c.items[key] = c.ll.PushFront(&planEntry{key: key, p: p})
	for c.max > 0 && c.ll.Len() > c.max {
		c.evictOldestLocked()
	}
	c.mEntries.Set(float64(c.ll.Len()))
}

func (c *PreparedCache) evictOldestLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.ll.Remove(el)
	delete(c.items, el.Value.(*planEntry).key)
	c.evictions++
	c.mEvictions.Inc()
}

// Resize rebounds the cache, evicting down to the new max immediately. Zero
// disables the cache and drops every entry.
func (c *PreparedCache) Resize(max int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = max
	if max == 0 {
		c.ll.Init()
		c.items = make(map[string]*list.Element)
	}
	for max > 0 && c.ll.Len() > max {
		c.evictOldestLocked()
	}
	c.mEntries.Set(float64(c.ll.Len()))
}

// Len returns the current entry count.
func (c *PreparedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// PlanCacheStats is a point-in-time snapshot for health endpoints.
type PlanCacheStats struct {
	Path      string `json:"path"`
	Entries   int    `json:"entries"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
}

// Stats snapshots the cache's counters.
func (c *PreparedCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Path: c.path, Entries: c.ll.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
