package core

import "kwsdbg/internal/obs"

// Pipeline metrics. The paper's whole argument is probe accounting — the
// Phase 3 strategies are all correct, they differ only in how many SQL
// probes they spend and how much classification they infer for free — so
// probes and inferences are counted per strategy, and every phase gets a
// latency histogram.
var (
	mDebugTotal = obs.Default.CounterVec("kwsdbg_debug_requests_total",
		"Debug runs, by Phase 3 strategy and outcome.", "strategy", "status")
	mProbes = obs.Default.CounterVec("kwsdbg_probe_total",
		"SQL existence probes executed in Phase 3, by strategy.", "strategy")
	mInferred = obs.Default.CounterVec("kwsdbg_inferred_total",
		"Nodes classified without executing SQL (rules R1/R2), by strategy.", "strategy")
	mPhaseSeconds = obs.Default.HistogramVec("kwsdbg_phase_seconds",
		"Wall time per pipeline phase: map (keyword binding), prune, mtn (Phase 2), traverse (Phase 3).",
		nil, "phase")
	mReusePercent = obs.Default.Gauge("kwsdbg_reuse_percent",
		"Descendant-overlap reuse percentage of the last debug run (Figure 13 metric).")
	mMTNs = obs.Default.Histogram("kwsdbg_mtns",
		"Minimal total nodes (candidate networks) per debug run.",
		[]float64{0, 1, 2, 5, 10, 20, 50, 100, 250, 1000})
	mBindingCache = obs.Default.CounterVec("kwsdbg_binding_cache_total",
		"Per-binding cache lookups (pruning, MTNs, sublattice and tree labels of a keyword binding), by result.",
		"result")
)

// Every request observes the phase timings and looks its binding up;
// Vec.With builds a label key per call, so the fixed children are resolved
// once and the binding lookup allocates nothing.
var (
	hMap      = mPhaseSeconds.With("map")
	hPrune    = mPhaseSeconds.With("prune")
	hMTN      = mPhaseSeconds.With("mtn")
	hTraverse = mPhaseSeconds.With("traverse")

	cBindingHit  = mBindingCache.With("hit")
	cBindingMiss = mBindingCache.With("miss")
)
