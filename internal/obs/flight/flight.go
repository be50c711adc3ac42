// Package flight is the probe-provenance flight recorder: an always-on,
// fixed-size ring buffer of structured probe-lifecycle events emitted from
// every hot-path decision point (scheduler admission, budget charges, probe
// and candidate-set cache lookups, plan reuse/replan, SQL execution, retries,
// verdict commits, load shedding).
//
// The paper's framing — explain *why* a system produced no answer — applies
// to the debugger itself: a slow or cache-cold run is a non-answer nobody can
// explain without knowing which probes missed which cache and where the SQL
// time went. The recorder captures exactly that, cheaply enough to leave on:
// one atomic sequence fetch plus one mutex-guarded 64-byte slot store per
// event, and a single nil check when recording is off.
//
// Events are keyed by request ID and probe key and stamped with a globally
// monotonic sequence number, so the interleaving of concurrent workers is
// totally ordered on replay. Events deliberately carry no wall-clock reads:
// the only time in an event is the SQL latency the oracle already measured,
// which keeps the recorder inside the determinism lint scope.
//
// A Log is the per-request handle: it stamps events with the request ID,
// forwards them to the shared ring, and — when ledger capture is on — keeps a
// private copy so the server can write a complete JSONL run ledger (see
// ledger.go) regardless of what else the ring has overwritten since.
package flight

import (
	"context"
	"sync"
	"sync/atomic"
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
	// CandSetHit: the per-run candidate-set cache reused a keyword
	// candidate set during planning. Probe holds the set signature.
	CandSetHit
	// CandSetMiss: the candidate set had to be computed.
	CandSetMiss
	// PlanReuse: a prepared probe executed its compiled plan as-is.
	PlanReuse
	// Replan: a prepared probe recompiled its plan (first use, or a write
	// or epoch bump staled its footprint; Cause distinguishes "cold" from
	// "stale").
	Replan
	// SQLExec: a probe reached the execution layer; Dur is the measured
	// latency and Alive the verdict it produced.
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
	// BitsetHit: the bitset engine answered the probe with bitmap
	// semi-joins — no SQL executed. Dur is the measured latency (memo hits
	// land near zero) and Alive the verdict.
	BitsetHit
	// BitsetFallback: the bitset engine declined the probe and it fell back
	// to the prepared-SQL path; Cause names the uncoverable shape
	// ("unanchored", "cyclic", "disconnected", "no_table",
	// "no_text_columns", "join_type", "candset_churn").
	BitsetFallback

	numKinds
)

var kindNames = [numKinds]string{
	KindUnknown:    "unknown",
	Admit:          "admit",
	BudgetCharged:  "budget_charged",
	ProbeCacheHit:  "probecache_hit",
	ProbeCacheMiss: "probecache_miss",
	CandSetHit:     "candset_hit",
	CandSetMiss:    "candset_miss",
	PlanReuse:      "plan_reuse",
	Replan:         "replan",
	SQLExec:        "sql_exec",
	Retry:          "retry",
	Verdict:        "verdict",
	Shed:           "shed",
	Exhausted:      "exhausted",
	Suspect:        "suspect",
	Repair:         "repair",
	BitsetHit:      "bitset_hit",
	BitsetFallback: "bitset_fallback",
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
	// not tied to a node (candidate sets, shedding).
	Node int32
	// Alive carries the verdict for SQLExec / Verdict / ProbeCacheHit.
	Alive bool
	// Probe is the cross-request probe-cache key (canonical label plus
	// keyword bindings) for probe events, or the candidate-set signature
	// for CandSet events.
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
// size <= 0. At ~5.5 probes and ~4 events per probe per debug run, 4096
// slots hold on the order of 150 recent runs' worth of hot-path history.
const DefaultRingSize = 4096

// slot is one pooled event cell. Slots are overwritten in ring order; the
// mutex makes the 64-byte copy atomic with respect to snapshotters and to a
// lapped writer.
type slot struct {
	mu sync.Mutex
	// ev is the stored event; Seq == 0 means never written. guarded by mu.
	ev Event
}

// store copies ev into the slot unless the slot already holds a newer event
// (a writer that lapped the ring while this one was descheduled).
func (s *slot) store(ev *Event) {
	s.mu.Lock()
	if ev.Seq > s.ev.Seq {
		s.ev = *ev
	}
	s.mu.Unlock()
}

// load copies the slot's event out.
func (s *slot) load() Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ev
}

// DefaultRunCap is how many recent run summaries a Recorder retains for
// GET /debug/runs.
const DefaultRunCap = 64

// Recorder is the shared fixed-size ring. One Recorder serves the whole
// process; per-request Logs feed it. It additionally retains the most recent
// run summaries so /debug/runs can answer without any ledger configured.
type Recorder struct {
	mask  uint64
	slots []slot
	seq   atomic.Uint64

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
	return &Recorder{mask: uint64(n - 1), slots: make([]slot, n), runCap: DefaultRunCap}
}

// record assigns the next sequence number and stores the event in its ring
// slot. Overwriting the oldest slot is the intended behavior: the ring is a
// bounded window of the most recent activity, not an archive — ledgers are
// the archive.
func (r *Recorder) record(ev *Event) {
	seq := r.seq.Add(1)
	ev.Seq = seq
	r.slots[(seq-1)&r.mask].store(ev)
}

// Snapshot copies out every live event in the ring, ordered by sequence
// number. req filters to one request ID when non-empty.
func (r *Recorder) Snapshot(req string) []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		ev := r.slots[i].load()
		if ev.Seq == 0 || (req != "" && ev.Req != req) {
			continue
		}
		out = append(out, ev)
	}
	sortEvents(out)
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
	rec *Recorder
	req string
	// fallbackSeq sequences events when no ring is attached (capture-only
	// logs in tests and CLI runs).
	fallbackSeq atomic.Uint64
	// count tallies events emitted through this log, capture or not, so the
	// run summary can report it without buffering the stream.
	count atomic.Uint64

	capture bool
	mu      sync.Mutex
	// events is the private capture buffer for ledger writing; nil unless
	// capture was requested. guarded by mu.
	events []Event
}

// NewLog builds a recording handle. rec may be nil (capture-only); capture
// keeps a private copy of every event for ledger writing.
func NewLog(rec *Recorder, req string, capture bool) *Log {
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
	ev := Event{Req: l.req, Kind: k, Node: int32(node), Alive: alive, Probe: probe, Cause: cause, Dur: dur}
	if l.rec != nil {
		l.rec.record(&ev)
	} else {
		ev.Seq = l.fallbackSeq.Add(1)
	}
	evCounters[k].Inc()
	l.count.Add(1)
	if l.capture {
		l.mu.Lock()
		l.events = append(l.events, ev)
		l.mu.Unlock()
	}
}

// Count returns how many events the log has emitted.
func (l *Log) Count() int {
	if l == nil {
		return 0
	}
	return int(l.count.Load())
}

// Events returns the captured event stream in sequence order; nil when the
// log is nil or capture was off.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	l.mu.Unlock()
	sortEvents(out)
	return out
}

// sortEvents orders events by sequence number.
func sortEvents(evs []Event) {
	// Events come out of the ring nearly sorted (ring order is sequence
	// order except across the wrap point), so a simple insertion sort is
	// both deterministic and close to O(n).
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Seq < evs[j-1].Seq; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
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
