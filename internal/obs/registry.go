// Code generated by cmd/obsgen. DO NOT EDIT.
//
// This file is the single source of truth for the kwsdbg metric namespace:
// the kwslint metricname analyzer refuses metric names that are not listed
// here, and DESIGN.md's metric table is rendered from the same data.
// Regenerate with `go generate ./internal/obs` after adding or changing a
// metric declaration.
package obs

// RegisteredMetric describes one metric family declared somewhere in the
// module via a Registry factory call.
type RegisteredMetric struct {
	Name    string
	Type    string   // counter | gauge | histogram
	Labels  []string // nil when unlabeled
	Help    string
	Package string // declaring package import path
}

// Registered lists every metric family in the module, sorted by name.
var Registered = []RegisteredMetric{
	{Name: "kwsdbg_binding_cache_total", Type: "counter", Labels: []string{"result"}, Help: "Per-binding cache lookups (pruning, MTNs, sublattice and tree labels of a keyword binding), by result.", Package: "kwsdbg/internal/core"},
	{Name: "kwsdbg_candset_hits_total", Type: "counter", Labels: nil, Help: "Candidate-set lookups served from a run's shared cache.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_candset_misses_total", Type: "counter", Labels: nil, Help: "Candidate-set lookups that computed the row set from the index.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_candset_stale_total", Type: "counter", Labels: nil, Help: "Candidate-set entries discarded because the data version advanced.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_debug_requests_total", Type: "counter", Labels: []string{"strategy", "status"}, Help: "Debug runs, by Phase 3 strategy and outcome.", Package: "kwsdbg/internal/core"},
	{Name: "kwsdbg_flight_events_total", Type: "counter", Labels: []string{"kind"}, Help: "Probe-lifecycle events recorded by the flight recorder, by event kind; counted when their run ends.", Package: "kwsdbg/internal/obs/flight"},
	{Name: "kwsdbg_flight_ring_slots", Type: "gauge", Labels: nil, Help: "Slot capacity of the flight-recorder ring buffer.", Package: "kwsdbg/internal/obs/flight"},
	{Name: "kwsdbg_http_in_flight", Type: "gauge", Labels: nil, Help: "Requests currently being served.", Package: "kwsdbg/internal/server"},
	{Name: "kwsdbg_http_request_seconds", Type: "histogram", Labels: []string{"path"}, Help: "HTTP request latency by endpoint.", Package: "kwsdbg/internal/server"},
	{Name: "kwsdbg_http_requests_total", Type: "counter", Labels: []string{"path", "status"}, Help: "HTTP requests served, by endpoint and status code.", Package: "kwsdbg/internal/server"},
	{Name: "kwsdbg_inferred_total", Type: "counter", Labels: []string{"strategy"}, Help: "Nodes classified without executing SQL (rules R1/R2), by strategy.", Package: "kwsdbg/internal/core"},
	{Name: "kwsdbg_inflight", Type: "gauge", Labels: nil, Help: "Requests currently holding an admission slot.", Package: "kwsdbg/internal/server"},
	{Name: "kwsdbg_invidx_build_seconds", Type: "gauge", Labels: nil, Help: "Wall time of the last full index build.", Package: "kwsdbg/internal/invidx"},
	{Name: "kwsdbg_invidx_builds_total", Type: "counter", Labels: nil, Help: "Full inverted-index builds (extensions over appended rows are not counted).", Package: "kwsdbg/internal/invidx"},
	{Name: "kwsdbg_invidx_lookup_seconds", Type: "histogram", Labels: []string{"op"}, Help: "Inverted-index lookup latency by operation.", Package: "kwsdbg/internal/invidx"},
	{Name: "kwsdbg_invidx_lookup_total", Type: "counter", Labels: []string{"op", "result"}, Help: "Inverted-index lookups, by operation and hit/miss.", Package: "kwsdbg/internal/invidx"},
	{Name: "kwsdbg_invidx_terms", Type: "gauge", Labels: nil, Help: "Distinct terms in the last built or extended index.", Package: "kwsdbg/internal/invidx"},
	{Name: "kwsdbg_lattice_build_seconds", Type: "gauge", Labels: nil, Help: "Wall time of the last lattice generation or load (Phase 0).", Package: "kwsdbg/internal/lattice"},
	{Name: "kwsdbg_lattice_builds_total", Type: "counter", Labels: []string{"source"}, Help: "Lattices constructed, by source.", Package: "kwsdbg/internal/lattice"},
	{Name: "kwsdbg_lattice_levels", Type: "gauge", Labels: nil, Help: "Levels (max joins + 1) in the most recently built or loaded lattice.", Package: "kwsdbg/internal/lattice"},
	{Name: "kwsdbg_lattice_nodes", Type: "gauge", Labels: nil, Help: "Nodes in the most recently built or loaded lattice.", Package: "kwsdbg/internal/lattice"},
	{Name: "kwsdbg_ledger_bytes_total", Type: "counter", Labels: nil, Help: "Bytes of JSONL ledger data written.", Package: "kwsdbg/internal/obs/flight"},
	{Name: "kwsdbg_ledger_runs_total", Type: "counter", Labels: nil, Help: "Run ledgers written to the ledger directory.", Package: "kwsdbg/internal/obs/flight"},
	{Name: "kwsdbg_ledger_write_errors_total", Type: "counter", Labels: nil, Help: "Run-ledger writes that failed (disk full, permission, encoding).", Package: "kwsdbg/internal/obs/flight"},
	{Name: "kwsdbg_mtns", Type: "histogram", Labels: nil, Help: "Minimal total nodes (candidate networks) per debug run.", Package: "kwsdbg/internal/core"},
	{Name: "kwsdbg_phase_seconds", Type: "histogram", Labels: []string{"phase"}, Help: "Wall time per pipeline phase: map (keyword binding), prune, mtn (Phase 2), traverse (Phase 3).", Package: "kwsdbg/internal/core"},
	{Name: "kwsdbg_plan_cache_entries", Type: "gauge", Labels: []string{"path"}, Help: "Prepared handles currently cached, by path.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_plan_cache_evictions_total", Type: "counter", Labels: []string{"path"}, Help: "Prepared handles evicted by the LRU bound, by path.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_plan_cache_hits_total", Type: "counter", Labels: []string{"path"}, Help: "Plan cache lookups answered with an existing Prepared handle, by path.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_plan_cache_misses_total", Type: "counter", Labels: []string{"path"}, Help: "Plan cache lookups that had to compile a new handle, by path.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_plan_compiles_total", Type: "counter", Labels: nil, Help: "Selects compiled into Prepared handles (resolve-once events).", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_plan_replan_giveup_total", Type: "counter", Labels: nil, Help: "Replan/candidate-set loops abandoned after maxReplanAttempts of sustained write churn.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_plan_replans_total", Type: "counter", Labels: nil, Help: "Prepared handles re-planned after a write intersected their footprint.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_probe_budget_exhausted_total", Type: "counter", Labels: []string{"reason"}, Help: "Debug responses returned incomplete because a per-request allowance ran out, by reason.", Package: "kwsdbg/internal/server"},
	{Name: "kwsdbg_probe_total", Type: "counter", Labels: []string{"strategy"}, Help: "SQL existence probes executed in Phase 3, by strategy.", Package: "kwsdbg/internal/core"},
	{Name: "kwsdbg_probecache_entries", Type: "gauge", Labels: nil, Help: "Verdicts currently held by the cache.", Package: "kwsdbg/internal/probecache"},
	{Name: "kwsdbg_probecache_evictions_total", Type: "counter", Labels: []string{"reason"}, Help: "Cache entries dropped, by reason: capacity = LRU pressure (cache too small), stale = TTL expiry or an epoch bump (data churning).", Package: "kwsdbg/internal/probecache"},
	{Name: "kwsdbg_probecache_hits_total", Type: "counter", Labels: nil, Help: "Verdict lookups (Phase 3 probes and /search fetches) answered from the cross-request cache.", Package: "kwsdbg/internal/probecache"},
	{Name: "kwsdbg_probecache_misses_total", Type: "counter", Labels: nil, Help: "Verdict lookups (Phase 3 probes and /search fetches) that missed the cross-request cache (including stale, expired and suspect entries).", Package: "kwsdbg/internal/probecache"},
	{Name: "kwsdbg_probecache_repairs_total", Type: "counter", Labels: nil, Help: "Suspect verdicts re-proved by a fresh probe and restored to the cache.", Package: "kwsdbg/internal/probecache"},
	{Name: "kwsdbg_probecache_suspects_total", Type: "counter", Labels: nil, Help: "Dead verdicts downgraded to suspect because a write touched a footprint table (repair candidates, not evictions).", Package: "kwsdbg/internal/probecache"},
	{Name: "kwsdbg_reuse_percent", Type: "gauge", Labels: nil, Help: "Descendant-overlap reuse percentage of the last debug run (Figure 13 metric).", Package: "kwsdbg/internal/core"},
	{Name: "kwsdbg_shed_total", Type: "counter", Labels: nil, Help: "Requests rejected with 429 because every admission slot stayed occupied for the full bounded wait.", Package: "kwsdbg/internal/server"},
	{Name: "kwsdbg_sql_exec_total", Type: "counter", Labels: nil, Help: "SELECT statements executed by the engine.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_sql_faults_injected_total", Type: "counter", Labels: nil, Help: "Execution attempts failed by the chaos fault-injection hook.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_sql_retries_total", Type: "counter", Labels: nil, Help: "SELECT execution attempts retried after a transient failure.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_sql_rows_scanned_total", Type: "counter", Labels: nil, Help: "Candidate rows visited while enumerating join bindings.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_sql_seconds", Type: "histogram", Labels: nil, Help: "SELECT execution latency.", Package: "kwsdbg/internal/engine"},
	{Name: "kwsdbg_write_errors_total", Type: "counter", Labels: nil, Help: "POST /write requests rejected (parse error, unknown table, bad value).", Package: "kwsdbg/internal/server"},
	{Name: "kwsdbg_write_rows_total", Type: "counter", Labels: nil, Help: "Rows inserted through POST /write.", Package: "kwsdbg/internal/server"},
	{Name: "kwsdbg_writes_total", Type: "counter", Labels: nil, Help: "INSERT statements applied through POST /write.", Package: "kwsdbg/internal/server"},
}

// RegisteredNames returns the set of declared metric family names.
func RegisteredNames() map[string]bool {
	m := make(map[string]bool, len(Registered))
	for _, r := range Registered {
		m[r.Name] = true
	}
	return m
}
