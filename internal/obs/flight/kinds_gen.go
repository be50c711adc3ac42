// Code generated by cmd/obsgen. DO NOT EDIT.
//
// KindRegistry is the machine-readable index of the flight recorder's event
// schema: one row per Kind constant, in enum order, with the stable wire
// name String() emits. The kwslint eventkind analyzer requires every Kind
// constant to appear here, so a new event kind cannot ship without
// regenerating (`go generate ./internal/obs`) — which also refreshes the
// metric registry and hot-path manifest from the same scan.
package flight

// RegisteredKind describes one probe-lifecycle event kind.
type RegisteredKind struct {
	Kind Kind
	Name string // stable wire name, as emitted by Kind.String
	Doc  string // declaration comment, one line
}

// KindRegistry lists every event kind, in enum order.
var KindRegistry = []RegisteredKind{
	{KindUnknown, "unknown", "KindUnknown marks an event whose kind this build does not know — only seen when loading a ledger from a different schema revision."},
	{ProbeCacheHit, "probecache_hit", "the cross-request probe cache answered the probe."},
	{ProbeCacheMiss, "probecache_miss", "the probe cache could not answer; Cause is the miss class (\"cold\", \"stale\", \"expired\")."},
	{Replan, "replan", "a prepared probe recompiled its plan (first use, or a write or epoch bump staled its footprint; Cause distinguishes \"cold\" from \"stale\")."},
	{SQLExec, "sql_exec", "a probe reached the execution layer; Dur is the measured latency and Alive the verdict it produced. On the prepared path an SQLExec with no Replan before it reused its compiled plan."},
	{Retry, "retry", "a transient execution failure was retried; Cause is the error text."},
	{Shed, "shed", "the server refused the request at admission (queue full)."},
	{Exhausted, "exhausted", "the governor tripped; Cause is \"probe_budget\" or \"deadline\"."},
	{Suspect, "suspect", "a cached dead verdict was downgraded to suspect because a write intersected its table footprint; the probe re-executes instead of trusting the verdict. Cause is the miss class (\"suspect\")."},
	{Repair, "repair", "a suspect verdict was re-proved by a fresh probe and its repaired classification stored back; Alive carries the new verdict and Cause is \"confirmed\" (still dead) or \"flipped\" (now alive)."},
}
