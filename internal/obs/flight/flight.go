// Package flight is the probe-provenance flight recorder: an always-on,
// fixed-size ring buffer of structured probe-lifecycle events emitted from
// every hot-path decision point (scheduler admission, budget charges, probe
// cache lookups, replans, SQL execution, retries, verdict commits, load
// shedding).
//
// The paper's framing — explain *why* a system produced no answer — applies
// to the debugger itself: a slow or cache-cold run is a non-answer nobody can
// explain without knowing which probes missed which cache and where the SQL
// time went. The recorder captures exactly that, cheaply enough to leave on:
// one lock of the recorder's mutex per event, under which the event is
// numbered, stored in its ring slot and tallied on its log, and a single nil
// check when recording is off.
//
// Events are keyed by request ID and probe key and stamped with a globally
// monotonic sequence number, so the interleaving of concurrent workers is
// totally ordered on replay. Events deliberately carry no wall-clock reads:
// the only time in an event is the SQL latency the oracle already measured,
// which keeps the recorder inside the determinism lint scope.
//
// A Log is the per-request handle: it stamps events with the request ID,
// forwards them to the shared ring, counts them by kind, and — when ledger
// capture is on — keeps a private copy so the server can write a complete
// JSONL run ledger (see ledger.go) regardless of what else the ring has
// overwritten since. The per-kind counts reach kwsdbg_flight_events_total
// when the run ends (Log.Flush), not per event.
package flight

import (
	"context"
	"sync"
	"time"
)

// Kind identifies one probe-lifecycle event type. The zero value is
// KindUnknown so ledgers written by newer builds load (and count) cleanly.
type Kind uint8

const (
	// KindUnknown marks an event whose kind this build does not know —
	// only seen when loading a ledger from a different schema revision.
	KindUnknown Kind = iota
	// Admit: the scheduler admitted a probe past the governor.
	Admit
	// BudgetCharged: the governor charged one probe against the budget;
	// Dur is unused, Cause carries the remaining budget when limited.
	BudgetCharged
	// ProbeCacheHit: the cross-request probe cache answered the probe.
	ProbeCacheHit
	// ProbeCacheMiss: the probe cache could not answer; Cause is the miss
	// class ("cold", "stale", "expired").
	ProbeCacheMiss
	// Replan: a prepared probe recompiled its plan (first use, or a write
	// or epoch bump staled its footprint; Cause distinguishes "cold" from
	// "stale").
	Replan
	// SQLExec: a probe reached the execution layer; Dur is the measured
	// latency and Alive the verdict it produced. On the prepared path an
	// SQLExec with no Replan before it reused its compiled plan.
	SQLExec
	// Retry: a transient execution failure was retried; Cause is the
	// error text.
	Retry
	// Verdict: the scheduler committed the probe's classification in
	// serial order.
	Verdict
	// Shed: the server refused the request at admission (queue full).
	Shed
	// Exhausted: the governor tripped; Cause is "probe_budget" or
	// "deadline".
	Exhausted
	// Suspect: a cached dead verdict was downgraded to suspect because a
	// write intersected its table footprint; the probe re-executes instead
	// of trusting the verdict. Cause is the miss class ("suspect").
	Suspect
	// Repair: a suspect verdict was re-proved by a fresh probe and its
	// repaired classification stored back; Alive carries the new verdict
	// and Cause is "confirmed" (still dead) or "flipped" (now alive).
	Repair

	numKinds
)

var kindNames = [numKinds]string{
	KindUnknown:    "unknown",
	Admit:          "admit",
	BudgetCharged:  "budget_charged",
	ProbeCacheHit:  "probecache_hit",
	ProbeCacheMiss: "probecache_miss",
	Replan:         "replan",
	SQLExec:        "sql_exec",
	Retry:          "retry",
	Verdict:        "verdict",
	Shed:           "shed",
	Exhausted:      "exhausted",
	Suspect:        "suspect",
	Repair:         "repair",
}

// String returns the stable wire name of the kind (used in ledgers, the
// /debug/flight dump, and the kwsdbg_flight_events_total kind label).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps a wire name back to its Kind; unknown names map to
// KindUnknown rather than failing, so newer ledgers degrade gracefully.
func ParseKind(s string) Kind {
	for k, n := range kindNames {
		if n == s {
			return Kind(k)
		}
	}
	return KindUnknown
}

// Event is one recorded probe-lifecycle fact. Events are plain values: the
// ring's slots are the pool, and recording copies the struct into a slot
// without allocating.
type Event struct {
	// Seq is the globally monotonic sequence number; it totally orders the
	// interleaving of concurrent workers.
	Seq uint64
	// Req is the request ID the event belongs to ("" for unattributed runs).
	Req string
	// Kind says what happened.
	Kind Kind
	// Node is the lattice node ID the event concerns, -1 when the event is
	// not tied to a node (shedding, text-path engine events).
	Node int32
	// Alive carries the verdict for SQLExec / Verdict / ProbeCacheHit.
	Alive bool
	// Probe is the cross-request probe-cache key (canonical label plus
	// keyword bindings) for probe events.
	Probe string
	// Cause qualifies the event: miss class, retry error, exhaustion
	// reason, remaining budget.
	Cause string
	// Dur is the measured SQL latency for SQLExec events; zero otherwise.
	// It is the run's only per-event timing and is reused from the
	// oracle's existing measurement — the recorder itself never reads the
	// clock.
	Dur time.Duration
}

// DefaultRingSize is the slot count used when a Recorder is built with
// size <= 0. A warm debug request over DBLife at level 5 emits about 300
// events, so 4096 slots hold roughly the last dozen such runs; ledgers, not
// the ring, are the archive.
const DefaultRingSize = 4096

// DefaultRunCap is how many recent run summaries a Recorder retains for
// GET /debug/runs.
const DefaultRunCap = 64

// Recorder is the shared fixed-size ring. One Recorder serves the whole
// process; per-request Logs feed it. It additionally retains the most recent
// run summaries so /debug/runs can answer without any ledger configured.
//
// One mutex guards the sequence counter, the ring, and the counts and capture
// buffer of every Log attached to the recorder, so recording an event takes
// that lock once and nothing else.
type Recorder struct {
	mu sync.Mutex
	// seq is the last sequence number assigned. guarded by mu.
	seq uint64
	// ring holds the newest len(ring) events: the event numbered s sits at
	// ring[(s-1)&mask]. A capture-only log's private recorder has no ring.
	// guarded by mu.
	ring []Event
	mask uint64
	// scratch takes the event being recorded when there is no ring.
	// guarded by mu.
	scratch Event

	runsMu sync.Mutex
	// runs is a ring of the most recent run summaries, oldest first once
	// full. guarded by runsMu.
	runs []RunSummary
	// runNext is the next write index into runs. guarded by runsMu.
	runNext int
	runCap  int
}

// NewRecorder builds a ring with at least size slots (rounded up to a power
// of two; size <= 0 means DefaultRingSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	mRingSlots.Set(float64(n))
	return &Recorder{mask: uint64(n - 1), ring: make([]Event, n), runCap: DefaultRunCap}
}

// nextLocked assigns the next sequence number and returns the slot its
// event is written to, so the event is built in place: the ring slot of the
// oldest event, or the scratch slot when there is no ring. Overwriting the
// oldest slot is the intended behavior: the ring is a bounded window of the
// most recent activity, not an archive — ledgers are the archive.
func (r *Recorder) nextLocked() (seq uint64, slot *Event) {
	r.seq++
	if r.ring == nil {
		return r.seq, &r.scratch
	}
	return r.seq, &r.ring[(r.seq-1)&r.mask]
}

// Snapshot copies out every live event in the ring, ordered by sequence
// number. req filters to one request ID when non-empty.
func (r *Recorder) Snapshot(req string) []Event {
	// The ring's length is fixed at construction, so the output can be
	// allocated before the lock is taken.
	out := make([]Event, 0, len(r.ring))
	r.mu.Lock()
	defer r.mu.Unlock()
	// The ring holds sequence numbers oldest..seq; walking them in order
	// visits each slot once, already sorted, wherever the ring wrapped.
	oldest := uint64(1)
	if n := uint64(len(r.ring)); r.seq > n {
		oldest = r.seq - n + 1
	}
	for s := oldest; s <= r.seq; s++ {
		if ev := &r.ring[(s-1)&r.mask]; req == "" || ev.Req == req {
			out = append(out, *ev)
		}
	}
	return out
}

// AddRun retains a run summary in the recent-runs ring.
func (r *Recorder) AddRun(sum RunSummary) {
	r.runsMu.Lock()
	defer r.runsMu.Unlock()
	if len(r.runs) < r.runCap {
		r.runs = append(r.runs, sum)
		r.runNext = len(r.runs) % r.runCap
		return
	}
	r.runs[r.runNext] = sum
	r.runNext = (r.runNext + 1) % r.runCap
}

// Runs returns the retained run summaries, most recent first.
func (r *Recorder) Runs() []RunSummary {
	r.runsMu.Lock()
	defer r.runsMu.Unlock()
	out := make([]RunSummary, 0, len(r.runs))
	// Walk backwards from the newest entry (runNext-1) around the ring.
	for i := 0; i < len(r.runs); i++ {
		idx := (r.runNext - 1 - i + len(r.runs)) % len(r.runs)
		out = append(out, r.runs[idx])
	}
	return out
}

// Log is the per-request recording handle. A nil *Log is a valid no-op
// receiver for every method — instrumented code holds a *Log field and emits
// unconditionally; when recording is off the cost is the nil check, nothing
// else (no context walk, no allocation).
type Log struct {
	// rec numbers and stores the log's events; its mutex also guards the
	// log's own state below.
	rec *Recorder
	req string
	// count tallies events emitted through this log, capture or not, so the
	// run summary can report it without buffering the stream.
	// guarded by rec.mu.
	count int
	// kinds tallies the events not yet added to kwsdbg_flight_events_total
	// (see Flush). guarded by rec.mu.
	kinds [numKinds]uint32

	capture bool
	// events is the private capture buffer for ledger writing, in sequence
	// order; nil unless capture was requested. guarded by rec.mu.
	events []Event
}

// NewLog builds a recording handle. rec may be nil (capture-only: the log
// numbers its events on a private recorder with no ring); capture keeps a
// private copy of every event for ledger writing.
func NewLog(rec *Recorder, req string, capture bool) *Log {
	if rec == nil {
		rec = &Recorder{}
	}
	return &Log{rec: rec, req: req, capture: capture}
}

// Req returns the request ID the log stamps onto events.
func (l *Log) Req() string {
	if l == nil {
		return ""
	}
	return l.req
}

// Emit records one event. Safe on a nil receiver (single branch, zero
// allocations) and for concurrent use.
//
//kws:hotpath
func (l *Log) Emit(k Kind, node int, probe string, alive bool, dur time.Duration, cause string) {
	if l == nil {
		return
	}
	l.rec.mu.Lock()
	seq, ev := l.rec.nextLocked()
	// Field by field: a composite literal would be built aside and copied
	// into the slot whole, through the write barrier's bulk move.
	ev.Seq, ev.Req, ev.Kind, ev.Node = seq, l.req, k, int32(node)
	ev.Alive, ev.Probe, ev.Cause, ev.Dur = alive, probe, cause, dur
	l.count++
	l.kinds[k]++
	if l.capture {
		l.events = append(l.events, *ev)
	}
	l.rec.mu.Unlock()
}

// Flush adds the events emitted since the last Flush to
// kwsdbg_flight_events_total, by kind. The pipeline calls it once when a run
// ends, so the shared counters are touched once per run instead of once per
// event; flushing again adds only what was emitted in between.
func (l *Log) Flush() {
	if l == nil {
		return
	}
	l.rec.mu.Lock()
	kinds := l.kinds
	l.kinds = [numKinds]uint32{}
	l.rec.mu.Unlock()
	for k, n := range kinds {
		if n > 0 {
			evCounters[k].Add(float64(n))
		}
	}
}

// Count returns how many events the log has emitted.
func (l *Log) Count() int {
	if l == nil {
		return 0
	}
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	return l.count
}

// Events returns the captured event stream in sequence order; nil when the
// log is nil or capture was off.
func (l *Log) Events() []Event {
	if l == nil || !l.capture {
		return nil
	}
	l.rec.mu.Lock()
	defer l.rec.mu.Unlock()
	return append([]Event(nil), l.events...)
}

type logKey struct{}

// NewContext returns a context carrying the log, for code paths that cannot
// hold a *Log field (the text-probe path reaches the engine through
// database/sql-style call chains).
func NewContext(ctx context.Context, l *Log) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, logKey{}, l)
}

// FromContext returns the context's log, or nil when the run is not being
// recorded through the context.
func FromContext(ctx context.Context) *Log {
	l, _ := ctx.Value(logKey{}).(*Log)
	return l
}
