package invidx

import (
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/obs"
)

// Index hot-path metrics. Lookups are labeled by operation — "tables" is the
// Phase 1 keyword->relations binding, "rows" backs the CONTAINS predicates of
// the probe SQL — and by whether the lookup found anything, since a miss on
// the binding path is exactly the paper's non-keyword case.
var (
	mLookups = obs.Default.CounterVec("kwsdbg_invidx_lookup_total",
		"Inverted-index lookups, by operation and hit/miss.", "op", "result")
	mLookupSeconds = obs.Default.HistogramVec("kwsdbg_invidx_lookup_seconds",
		"Inverted-index lookup latency by operation.", nil, "op")
	mBuilds = obs.Default.Counter("kwsdbg_invidx_builds_total",
		"Full inverted-index builds (extensions over appended rows are not counted).")
	mBuildSeconds = obs.Default.Gauge("kwsdbg_invidx_build_seconds",
		"Wall time of the last full index build.")
	mTerms = obs.Default.Gauge("kwsdbg_invidx_terms",
		"Distinct terms in the last built or extended index.")
)

// lookupMetrics is one operation's pre-resolved metric children. Vec.With
// resolves a child through a lock and a label-key build — ~2 allocations per
// call — and recordLookup runs once per keyword binding and once per row
// probe, so the op/result label space (2×2 counters, 2 histograms) is
// resolved once at init and the hot path pays an atomic add and an observe.
type lookupMetrics struct {
	hit, miss *obs.Counter
	seconds   *obs.Histogram
}

var (
	lookupTables = lookupMetrics{
		hit:     mLookups.With("tables", "hit"),
		miss:    mLookups.With("tables", "miss"),
		seconds: mLookupSeconds.With("tables"),
	}
	lookupRows = lookupMetrics{
		hit:     mLookups.With("rows", "hit"),
		miss:    mLookups.With("rows", "miss"),
		seconds: mLookupSeconds.With("rows"),
	}
)

// record accounts one lookup; hit reports whether it returned postings.
//
//kws:hotpath
func (m lookupMetrics) record(start time.Time, hit bool) {
	c := m.miss
	if hit {
		c = m.hit
	}
	c.Inc()
	m.seconds.Observe(clock.Since(start).Seconds())
}
