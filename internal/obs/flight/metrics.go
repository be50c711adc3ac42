package flight

import "kwsdbg/internal/obs"

// Recorder metrics. The per-kind event counters answer "is the workload
// cache-hot" from a plain /metrics scrape, without pulling a ledger; the
// ledger counters watch the opt-in archive path for write failures.
//
// A Log tallies its events by kind under the recorder's lock and adds the
// tallies to the counters once, when its run ends (Log.Flush). CounterVec.With
// builds a label key (and allocates) on every call, so the per-kind counters
// are resolved once into an array indexed by Kind.
var (
	mEventsVec = obs.Default.CounterVec("kwsdbg_flight_events_total",
		"Probe-lifecycle events recorded by the flight recorder, by event kind; counted when their run ends.",
		"kind")
	mRingSlots = obs.Default.Gauge("kwsdbg_flight_ring_slots",
		"Slot capacity of the flight-recorder ring buffer.")
	mLedgerRuns = obs.Default.Counter("kwsdbg_ledger_runs_total",
		"Run ledgers written to the ledger directory.")
	mLedgerErrors = obs.Default.Counter("kwsdbg_ledger_write_errors_total",
		"Run-ledger writes that failed (disk full, permission, encoding).")
	mLedgerBytes = obs.Default.Counter("kwsdbg_ledger_bytes_total",
		"Bytes of JSONL ledger data written.")
)

var evCounters = func() (a [numKinds]*obs.Counter) {
	for k := Kind(0); k < numKinds; k++ {
		a[k] = mEventsVec.With(k.String())
	}
	return a
}()
