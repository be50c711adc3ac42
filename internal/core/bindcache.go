package core

import (
	"container/list"
	"encoding/binary"
	"strings"
	"sync"

	"kwsdbg/internal/lattice"
)

// This file is the per-binding cache. Phases 1b and 2 (§2.3–2.4) — pruning
// and MTN discovery — and the MTNs' sublattice depend only on the offline
// lattice and on which relations each keyword binds. The offline lattice
// spares each query the candidate-network generation of DISCOVER-style
// systems (§2.2); this cache spares each repeated binding the pruning and
// closure work too.
//
// The key is the binding itself (lattice.Bindings plus the keyword count).
// Phase 1a recomputes it from the live inverted index on every request, so a
// write that makes a keyword bind a new table changes the key; and the
// lattice never changes, so an entry never goes stale and nothing
// invalidates it. Entries are shared by concurrent runs and immutable but
// for the sublattice's SBH memo, to which completed SBH runs add their
// decision paths (sbh.go); everything else a run learns (node statuses,
// probe memos) stays in the run.

// bindingCacheBytes bounds the cache. Entries are charged their computed
// size. On the level-5 DBLife lattice the eight distinct Q1-Q10 bindings
// take 423 KB in all, and the 197 bindings of kwsbench's long-tail pool
// (scale 0.2) take 6.6 MB, 33 KB on average: the bound holds every Q1-Q10
// binding and about 125 long-tail ones. The SBH memos are not charged: each
// stays within its sublattice's size, so the entries and their memos take
// at most twice the bound. That holds as far as traverseResult.bytes bounds
// a result's heap: on Q1-Q10 at level 5 the ten recorded paths are charged
// 67.7 KB and retain 61.7 KB.
const bindingCacheBytes = 4 << 20

// bindKeyStack sizes the stack buffer a binding key is built in: seven
// Bindings words and the keyword count. Larger bindings build theirs on the
// heap.
const bindKeyStack = 7*8 + 1

// bindingEntry is Phases 1b and 2 for one keyword binding, plus what the
// output step reads of the sublattice.
type bindingEntry struct {
	pruned int   // lattice nodes surviving pruning
	mtnIDs []int // the MTNs' lattice node IDs, ascending

	// sub is the MTNs' sublattice, nil when there are none; descTotal and
	// descUnique are its descendant statistics.
	sub                   *sublattice
	descTotal, descUnique int

	// labels holds every sub node's tree label back to back: sub node x's
	// is labels[labelOff[x]:labelOff[x+1]].
	labels   string
	labelOff []int32

	// size is the entry's charge against the cache bound, its key aside.
	size int
}

// newBindingEntry builds the entry of a query whose pruning kept pruned
// lattice nodes and found the MTNs mtnIDs.
func newBindingEntry(lat *lattice.Lattice, pruned int, mtnIDs []int) *bindingEntry {
	e := &bindingEntry{pruned: pruned, mtnIDs: mtnIDs}
	if len(mtnIDs) > 0 {
		e.sub = buildSublattice(lat, mtnIDs)
		e.descTotal, e.descUnique = e.sub.descendantStats()
		labels := make([]string, e.sub.len())
		total := 0
		for x := range labels {
			labels[x] = e.sub.node(x).String()
			total += len(labels[x])
		}
		var sb strings.Builder
		sb.Grow(total)
		e.labelOff = make([]int32, len(labels)+1)
		for x, l := range labels {
			sb.WriteString(l)
			e.labelOff[x+1] = int32(sb.Len())
		}
		e.labels = sb.String()
		e.size = e.sub.bytes()
	}
	const entryHeader = 160 // the struct, its list element and map slot
	e.size += entryHeader + 8*cap(e.mtnIDs) + len(e.labels) + 4*cap(e.labelOff)
	return e
}

// info describes sub node x for user consumption. It leaves the SQL text to
// Output.QuerySQL, so a caller that never shows it never renders it.
func (e *bindingEntry) info(x int) QueryInfo {
	return QueryInfo{NodeID: e.sub.nodeID[x], Level: e.sub.level[x], Tree: e.labels[e.labelOff[x]:e.labelOff[x+1]]}
}

// appendBindKey appends the cache key of an n-keyword query's binding: the
// binding's words, little-endian, then n.
func appendBindKey(dst []byte, b lattice.Bindings, n int) []byte {
	for _, w := range b {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return append(dst, byte(n))
}

// bindingCache is a least-recently-used cache of binding entries, bounded by
// their summed size. Safe for concurrent use.
type bindingCache struct {
	// max is the byte bound, fixed at construction.
	max int

	mu sync.Mutex
	// ll is the recency list, most recent first. guarded by mu.
	ll *list.List
	// items indexes ll by key. guarded by mu.
	items map[string]*list.Element
	// bytes is the summed charge of the cached entries. guarded by mu.
	bytes int
	// hits, misses and evictions feed Stats. guarded by mu.
	hits, misses, evictions int64
}

// bindingSlot is one cached entry with its key and charge.
type bindingSlot struct {
	key  string
	e    *bindingEntry
	size int
}

func newBindingCache(max int) *bindingCache {
	return &bindingCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the entry cached under key, or nil.
//
//kws:hotpath
func (c *bindingCache) get(key []byte) *bindingEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.misses++
		cBindingMiss.Inc()
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits++
	cBindingHit.Inc()
	return el.Value.(*bindingSlot).e
}

// put caches e under key, evicting the least recently used entries beyond
// the bound. An entry larger than the bound is left out, and a key already
// present — a concurrent miss built it first — keeps its entry.
func (c *bindingCache) put(key []byte, e *bindingEntry) {
	size := e.size + len(key)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[string(key)]; ok {
		return
	}
	k := string(key)
	c.items[k] = c.ll.PushFront(&bindingSlot{key: k, e: e, size: size})
	c.bytes += size
	for c.bytes > c.max {
		el := c.ll.Back()
		s := el.Value.(*bindingSlot)
		c.ll.Remove(el)
		delete(c.items, s.key)
		c.bytes -= s.size
		c.evictions++
	}
}

// BindingCacheStats is a point-in-time snapshot of the per-binding cache,
// for health endpoints.
type BindingCacheStats struct {
	Entries   int
	Bytes     int
	Hits      int64
	Misses    int64
	Evictions int64
}

// stats snapshots the cache's counters.
func (c *bindingCache) stats() BindingCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BindingCacheStats{Entries: c.ll.Len(), Bytes: c.bytes, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
