package probecache

import "kwsdbg/internal/obs"

// Cache metrics, in the process-wide obs registry alongside the probe
// counters of internal/core: a scrape of GET /metrics shows how many Phase 3
// probes were answered from memory instead of the engine. Counters aggregate
// over all Cache instances in the process (servers run one).
var (
	mHits = obs.Default.Counter("kwsdbg_probecache_hits_total",
		"Aliveness probes answered from the cross-request cache.")
	mMisses = obs.Default.Counter("kwsdbg_probecache_misses_total",
		"Aliveness probes that missed the cross-request cache (including stale and expired entries).")
	mEvictionsVec = obs.Default.CounterVec("kwsdbg_probecache_evictions_total",
		"Cache entries dropped, by reason: capacity = LRU pressure (cache too small), stale = TTL expiry or an epoch bump (data churning).",
		"reason")
	mEvictionsCapacity = mEvictionsVec.With("capacity")
	mEvictionsStale    = mEvictionsVec.With("stale")
	mEntries           = obs.Default.Gauge("kwsdbg_probecache_entries",
		"Verdicts currently held by the cache.")
	mSuspects = obs.Default.Counter("kwsdbg_probecache_suspects_total",
		"Dead verdicts downgraded to suspect because a write touched a footprint table (repair candidates, not evictions).")
	mRepairs = obs.Default.Counter("kwsdbg_probecache_repairs_total",
		"Suspect verdicts re-proved by a fresh probe and restored to the cache.")
)
