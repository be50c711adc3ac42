package core

import (
	"container/list"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
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
// for the sublattice's two memos: completed SBH runs add their decision
// paths (sbh.go), and the first run of each keyword tuple adds its probe-key
// table (keyMemo). Everything else a run learns (node statuses, prepared
// handles) stays in the run.

// bindingCacheBytes bounds the cache. Entries are charged their computed
// size. On the level-5 DBLife lattice the eight distinct Q1-Q10 bindings
// take 423 KB in all, and the 197 bindings of kwsbench's long-tail pool
// (scale 0.2) take 6.6 MB, 33 KB on average: the bound holds every Q1-Q10
// binding and about 125 long-tail ones. The memos are not charged: each
// stays within its sublattice's size, so the entries, their SBH memos and
// their key memos take at most three times the bound. The key memo's
// charge is exact; the SBH memo's holds as far as traverseResult.bytes
// bounds a result's heap: on Q1-Q10 at level 5 the ten recorded paths are
// charged 67.7 KB and retain 61.7 KB.
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

// keyTable is every sub node's probe key for one keyword tuple, back to
// back as the entry's labels are: sub node x's key is keys[off[x]:off[x+1]],
// byte for byte probecache.Key of the node's label and copy mask and the
// tuple. A run reads its keys from its tuple's table, so a probe builds
// none.
type keyTable struct {
	keywords []string
	keys     string
	off      []int32
}

// newKeyTable builds sub's key table for keywords. A key is the node's
// label and the suffix of its copy mask, and the suffix of each mask is
// built once.
func newKeyTable(sub *sublattice, keywords []string) *keyTable {
	// suffixes[i] is the suffix of the copy masks whose keyword bits,
	// bits 1..len(keywords), read i.
	suffixes := make([]string, 1<<len(keywords))
	bound := uint64(len(suffixes) - 1)
	total := 0
	for x := 0; x < sub.len(); x++ {
		n := sub.node(x)
		i := n.CopyMask >> 1 & bound
		if i != 0 && suffixes[i] == "" {
			suffixes[i] = probecache.Suffix(n.CopyMask, keywords)
		}
		total += len(n.Label) + len(suffixes[i])
	}
	var sb strings.Builder
	sb.Grow(total)
	t := &keyTable{keywords: keywords, off: make([]int32, sub.len()+1)}
	for x := 0; x < sub.len(); x++ {
		n := sub.node(x)
		sb.WriteString(n.Label)
		sb.WriteString(suffixes[n.CopyMask>>1&bound])
		t.off[x+1] = int32(sb.Len())
	}
	t.keys = sb.String()
	return t
}

// key returns sub node x's probe key.
func (t *keyTable) key(x int) string { return t.keys[t.off[x]:t.off[x+1]] }

// bytes returns the table's charge against its memo's bound: its struct
// and its slot in the memo's published slice, its keys, its offsets and its
// keywords.
func (t *keyTable) bytes() int {
	n := 64 + 8 + len(t.keys) + 4*cap(t.off)
	for _, kw := range t.keywords {
		n += 16 + len(kw)
	}
	return n
}

// keyMemo holds the key tables of the keyword tuples run on one
// sublattice. Readers load the published slice, which is never changed;
// record publishes a copy with one more table. The tables take at most as
// many bytes as the sublattice itself, and none is ever dropped.
type keyMemo struct {
	tables atomic.Pointer[[]*keyTable]

	// mu serializes record.
	mu sync.Mutex
	// bytes is the charge of the published tables. guarded by mu.
	bytes int
}

// keys returns the key table of keywords on s: the memo's, or else a new
// one, which the memo records while it has room. A tuple that finds no
// room keeps its table to the run.
func (s *sublattice) keys(keywords []string) *keyTable {
	if t := s.keyMemo.find(keywords); t != nil {
		return t
	}
	return s.keyMemo.record(s, newKeyTable(s, keywords))
}

// find returns the published table of keywords, or nil.
func (m *keyMemo) find(keywords []string) *keyTable {
	if p := m.tables.Load(); p != nil {
		for _, t := range *p {
			if slices.Equal(t.keywords, keywords) {
				return t
			}
		}
	}
	return nil
}

// record publishes t, unless the memo holds its tuple's table already,
// which it returns instead, or t would take the memo past the size of sub.
// A recorded table keeps its own copy of the keywords, which the caller
// may reuse.
func (m *keyMemo) record(sub *sublattice, t *keyTable) *keyTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	if u := m.find(t.keywords); u != nil {
		return u
	}
	size := t.bytes()
	if m.bytes+size > sub.bytes() {
		return t
	}
	kws := make([]string, len(t.keywords))
	for i, kw := range t.keywords {
		kws[i] = strings.Clone(kw)
	}
	t.keywords = kws
	var tables []*keyTable
	if p := m.tables.Load(); p != nil {
		tables = *p
	}
	next := append(tables[:len(tables):len(tables)], t)
	m.tables.Store(&next)
	m.bytes += size
	return t
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
