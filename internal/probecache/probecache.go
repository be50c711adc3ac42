// Package probecache remembers aliveness verdicts across debugging requests.
//
// Phase 3 spends its entire budget on existence probes ("SELECT 1 ... LIMIT 1"
// per lattice node), and the paper's Figure 13 shows that 60-90% of MTN
// descendants are shared between the candidate networks of one query; the same
// sharing holds *across* queries, because a node's probe is determined by its
// canonical join-tree label plus the keyword bound to each copy — not by which
// request asked. The cache therefore keys verdicts by (canonical node label,
// per-copy keyword binding signature): two requests probing structurally
// identical sub-queries with the same keywords share one verdict, even across
// lattices of different depths.
//
// Entries are stamped against the engine's version vector (vervec): an entry
// stored through PutFP records the tables and keyword terms of its join tree
// with their write-counter values, and SyncVersions snapshots the live vector
// once per debug run. A later lookup compares only the entry's own footprint
// slice, so a write to a disjoint table invalidates nothing.
//
// Verdicts whose footprint a write *did* touch split by monotonicity: under
// the paper's pruning rules R1/R2 an INSERT can only flip dead -> alive,
// never alive -> dead, so an alive verdict still hits, while a dead verdict
// is downgraded to *suspect* — kept in place, reported as a Suspect outcome
// so the oracle re-probes it, and counted as a repair when the fresh verdict
// is stored over it. Non-monotone mutations (in-place updates) advance the
// vector's epoch, which stales footprint entries wholesale. Stale entries
// are evicted lazily as they are touched or as the LRU rotates them out. An
// optional TTL bounds staleness against mutations the vector cannot see; an
// entry whose TTL lapsed is an eviction, never a repair candidate, no matter
// what state it was in.
//
// The cache is safe for concurrent use. Lookups and stores are O(footprint),
// which is O(1) in the lattice's node size.
package probecache

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/vervec"
)

// DefaultMaxEntries bounds the cache when Config.MaxEntries is zero. An entry
// is ~100 bytes (key string + list element), so the default costs a few MB.
const DefaultMaxEntries = 1 << 16

// Config tunes a Cache.
type Config struct {
	// MaxEntries bounds the number of cached verdicts; 0 means
	// DefaultMaxEntries, negative means unbounded.
	MaxEntries int
	// TTL expires entries this long after they were stored; 0 disables
	// expiry (footprint stamps remain the invalidation mechanism).
	TTL time.Duration
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits   uint64
	Misses uint64
	// EvictionsCapacity counts entries rotated out by LRU pressure — the
	// "cache too small" signal — while EvictionsStale counts entries dropped
	// on contact because an epoch bump superseded their stamp or their TTL
	// expired — the "data churning" signal. Evictions is their sum, kept for
	// callers that do not care about the split.
	EvictionsCapacity uint64
	EvictionsStale    uint64
	Evictions         uint64
	Entries           int
	// Suspects counts dead verdicts downgraded to suspect by a
	// footprint-intersecting write; Repairs counts suspects re-proved by a
	// fresh probe and restored. Their difference is the suspect frontier
	// still awaiting repair.
	Suspects uint64
	Repairs  uint64
}

type entry struct {
	key   string
	alive bool
	// expires is the wall-clock deadline; zero time means no TTL.
	expires time.Time

	// Footprint stamp (PutFP entries; names is nil for Put entries, which
	// only the TTL and the LRU retire). names[:ntab] are the join tree's
	// table counters — the suspect trigger set — and names[ntab:] its
	// keyword-term counters, recorded for provenance. vals are the view's
	// counter values and epoch the view's epoch at store time.
	names []string
	ntab  int
	vals  []uint64
	epoch uint64
	// suspect marks a dead verdict whose table slice advanced: kept for
	// repair, reported as Suspect until a fresh Put lands or the TTL does.
	suspect bool
}

// Cache is a thread-safe LRU of alive/dead verdicts.
type Cache struct {
	cfg Config

	mu sync.Mutex
	// ll is the recency list (front = most recently used; values are
	// *entry). guarded by mu.
	ll *list.List
	// items indexes ll by probe key. guarded by mu.
	items map[string]*list.Element

	// view is the version-vector snapshot footprint stamps are taken from
	// and compared against; nil until the first SyncVersions. guarded by mu.
	view *vervec.View

	// hits and misses count lookups. guarded by mu.
	hits, misses uint64
	// evictCapacity and evictStale split evictions by cause. guarded by mu.
	evictCapacity, evictStale uint64
	// suspects and repairs count the monotone-repair lifecycle. guarded by mu.
	suspects, repairs uint64

	// now is the clock, injectable for TTL tests. Defaults to the
	// internal/clock seam, never a raw time.Now — the determinism lint
	// enforces this for the whole package.
	now func() time.Time
}

// New builds a cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	return &Cache{
		cfg:   cfg,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		now:   clock.Now,
	}
}

// Key canonicalizes a probe identity: the node's canonical label (Algorithm
// 2's labeling, shared by structurally identical join trees at any lattice
// depth) plus the keyword bound to each copy the node uses. copyMask has bit
// j set when the node contains a keyword copy j >= 1 (bit 0, the free tuple
// set, is already part of the label). Nodes that use only copy 1 therefore
// share entries between any two queries whose first keyword matches.
func Key(label string, copyMask uint64, keywords []string) string {
	// Built with plain writes, not fmt: the flight recorder computes a key
	// per probe even when the verdict cache is bypassed, so this sits on the
	// recording hot path.
	n := len(label)
	for j := 1; j <= len(keywords); j++ {
		if copyMask&(1<<uint(j)) != 0 {
			n += len(keywords[j-1]) + 4 // '\x00' + up to 2 digits + '='
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString(label)
	for j := 1; j <= len(keywords); j++ {
		if copyMask&(1<<uint(j)) == 0 {
			continue
		}
		sb.WriteByte('\x00')
		sb.WriteString(strconv.Itoa(j))
		sb.WriteByte('=')
		sb.WriteString(keywords[j-1])
	}
	return sb.String()
}

// SyncVersions snapshots the engine's version vector so later lookups
// compare each entry's own footprint slice against it. Call it once per
// debug run, before the first probe; the snapshot is skipped when the vector
// has not moved since the last sync. Entries stored before the first
// SyncVersions carry no stamp.
//
// The returned view is the snapshot now current; the run passes it to PutFP
// so its entries are stamped against the state *its* probes are guaranteed
// to have seen. Stamping from the cache's latest view instead would be
// unsound: a concurrent run could sync a newer view between this run's
// probe and its store, vouching for a write the probe never read.
func (c *Cache) SyncVersions(vv *vervec.Vector) *vervec.View {
	if vv == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.view == nil || c.view.Seq != vv.Seq() {
		c.view = vv.Snapshot()
	}
	return c.view
}

// Footprint names what a verdict depends on, as version-vector names:
// Tables are the join tree's relations (the suspect trigger set — an insert
// into any of them can flip a dead verdict alive) and Terms the keywords
// bound to its copies (recorded for provenance and analysis; a term-only
// write never suspects a verdict, because the row landed in a table the
// tree does not join).
type Footprint struct {
	Tables []string
	Terms  []string
}

// Outcome classifies one lookup: a hit, or which way it missed. The split
// matters for provenance — a cold miss means the probe was simply never
// cached, a stale/expired miss means the data churned underneath an entry
// that existed — so the flight recorder records the cause, not just the
// boolean.
type Outcome uint8

const (
	// Hit answered the probe from cache.
	Hit Outcome = iota
	// MissCold means no entry existed for the key.
	MissCold
	// MissStale means an epoch bump superseded the entry's stamp.
	MissStale
	// MissExpired means the entry's TTL had lapsed.
	MissExpired
	// Suspect means a dead verdict whose footprint a write intersected: the
	// caller must re-probe (it is a miss for answering purposes), but the
	// entry is retained — the fresh verdict stored over it is a repair, and
	// until it lands repeated lookups keep reporting Suspect.
	Suspect
)

// Cause is the outcome's short wire name: "" for a hit, otherwise the miss
// class ("cold", "stale", "expired", "suspect").
func (o Outcome) Cause() string {
	switch o {
	case MissCold:
		return "cold"
	case MissStale:
		return "stale"
	case MissExpired:
		return "expired"
	case Suspect:
		return "suspect"
	default:
		return ""
	}
}

// Get returns the cached verdict for the key, if it is present, current, and
// unexpired. Stale entries (older epoch or past TTL) are evicted on contact
// and reported as misses.
//
//kws:hotpath
func (c *Cache) Get(key string) (alive, ok bool) {
	alive, outcome := c.Lookup(key)
	return alive, outcome == Hit
}

// Lookup is Get with the miss cause: it distinguishes entries that never
// existed from entries invalidated by an epoch bump or TTL expiry, and from
// dead verdicts downgraded to suspect by a footprint-intersecting write.
// Stale and expired entries are evicted on contact, exactly as in Get;
// suspects are retained for repair.
//
// The check order is deliberate: epoch, then TTL, then footprint. A suspect
// whose TTL lapses is therefore an expired eviction (EvictionsStale), never
// a repair candidate — the TTL exists to bound staleness the counters cannot
// see, and repair must not resurrect it.
//
//kws:hotpath
func (c *Cache) Lookup(key string) (alive bool, outcome Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if !found {
		c.misses++
		mMisses.Inc()
		return false, MissCold
	}
	en := el.Value.(*entry)
	if en.names != nil && c.view != nil && en.epoch != c.view.Epoch {
		// A non-monotone mutation (epoch bump) voids every footprint
		// argument: alive and dead entries alike are plainly stale.
		c.removeLocked(el, true)
		c.misses++
		mMisses.Inc()
		return false, MissStale
	}
	// An entry expiring exactly at the deadline has already expired: the
	// TTL promises "served strictly before expires", so expires == now
	// must miss.
	if !en.expires.IsZero() && !c.now().Before(en.expires) {
		c.removeLocked(el, true)
		c.misses++
		mMisses.Inc()
		return false, MissExpired
	}
	if en.names != nil && c.advancedLocked(en) {
		if en.alive {
			// Monotone repair argument, alive half (R1): an INSERT can
			// only create bindings, so an alive verdict stays alive no
			// matter what landed in its tables. Serve it.
			c.ll.MoveToFront(el)
			c.hits++
			mHits.Inc()
			return true, Hit
		}
		// Dead half (R2): the write may have given this tree its first
		// binding. Downgrade to suspect — once — and make the caller
		// re-probe; the entry stays for Put to repair.
		if !en.suspect {
			en.suspect = true
			c.suspects++
			mSuspects.Inc()
		}
		c.misses++
		mMisses.Inc()
		return false, Suspect
	}
	c.ll.MoveToFront(el)
	c.hits++
	mHits.Inc()
	return en.alive, Hit
}

// advancedLocked reports whether any of the entry's footprint *tables* has
// advanced past its stamped value in the current view. Term counters are
// provenance only: a write carrying a tree's keyword into a table the tree
// does not join cannot bind a new row into the tree.
func (c *Cache) advancedLocked(en *entry) bool {
	for i := 0; i < en.ntab; i++ {
		if c.view.Counter(en.names[i]) > en.vals[i] {
			return true
		}
	}
	return false
}

// Put stores a verdict without a footprint, evicting the least recently used
// entry when the cache is full. No write or epoch bump invalidates such an
// entry, only the TTL and the LRU; the oracle stores through PutFP.
func (c *Cache) Put(key string, alive bool) {
	c.putStamped(key, alive, nil, nil)
}

// PutFP is Put with a footprint stamp: the verdict records its join tree's
// tables and terms with their counter values from vw — the view the storing
// run got from SyncVersions, i.e. a snapshot taken before any of its probes
// read data — so later lookups compare only that slice of the version
// vector. Storing over a suspect entry is a repair (the re-probe the
// suspect asked for) and is counted as such. A nil vw (no SyncVersions ran)
// stores the entry without a stamp, as Put does.
func (c *Cache) PutFP(key string, alive bool, fp Footprint, vw *vervec.View) {
	c.putStamped(key, alive, &fp, vw)
}

func (c *Cache) putStamped(key string, alive bool, fp *Footprint, vw *vervec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var expires time.Time
	if c.cfg.TTL > 0 {
		expires = c.now().Add(c.cfg.TTL)
	}
	var names []string
	var vals []uint64
	var ntab int
	var epoch uint64
	if fp != nil && vw != nil {
		ntab = len(fp.Tables)
		names = make([]string, 0, ntab+len(fp.Terms))
		names = append(names, fp.Tables...)
		names = append(names, fp.Terms...)
		vals = make([]uint64, len(names))
		for i, n := range names {
			vals[i] = vw.Counter(n)
		}
		epoch = vw.Epoch
	}
	if el, found := c.items[key]; found {
		en := el.Value.(*entry)
		if en.suspect {
			c.repairs++
			mRepairs.Inc()
		}
		en.alive, en.expires = alive, expires
		en.names, en.ntab, en.vals, en.epoch = names, ntab, vals, epoch
		en.suspect = false
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry{
		key: key, alive: alive, expires: expires,
		names: names, ntab: ntab, vals: vals, epoch: epoch,
	})
	c.items[key] = el
	mEntries.Set(float64(len(c.items)))
	if c.cfg.MaxEntries > 0 && len(c.items) > c.cfg.MaxEntries {
		if back := c.ll.Back(); back != nil {
			c.removeLocked(back, false)
		}
	}
}

// removeLocked drops one entry; the caller holds c.mu. stale separates
// evicted-on-contact entries (superseded epoch or expired TTL) from
// LRU-capacity rotation, so the counters can tell "data churning" apart from
// "cache too small".
func (c *Cache) removeLocked(el *list.Element, stale bool) {
	en := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, en.key)
	if stale {
		c.evictStale++
		mEvictionsStale.Inc()
	} else {
		c.evictCapacity++
		mEvictionsCapacity.Inc()
	}
	mEntries.Set(float64(len(c.items)))
}

// Len reports the number of entries currently held (including any stale ones
// not yet evicted).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Purge empties the cache without touching the counters.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	mEntries.Set(0)
}

// Snapshot returns the current counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:              c.hits,
		Misses:            c.misses,
		EvictionsCapacity: c.evictCapacity,
		EvictionsStale:    c.evictStale,
		Evictions:         c.evictCapacity + c.evictStale,
		Entries:           len(c.items),
		Suspects:          c.suspects,
		Repairs:           c.repairs,
	}
}

// FootprintTables lists the distinct table names (as version-vector names)
// appearing in any cached entry's footprint, sorted. The write-heavy bench
// uses it to pick a table provably disjoint from everything cached.
func (c *Cache) FootprintTables() []string {
	c.mu.Lock()
	set := make(map[string]bool)
	for el := c.ll.Front(); el != nil; el = el.Next() {
		en := el.Value.(*entry)
		for i := 0; i < en.ntab; i++ {
			set[en.names[i]] = true
		}
	}
	c.mu.Unlock()
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
