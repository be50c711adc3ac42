package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"kwsdbg/internal/obs/flight"
)

// Exhaustion reasons, surfaced in Output.IncompleteReason, the report JSON,
// and the server's kwsdbg_probe_budget_exhausted_total metric label.
const (
	ReasonProbeBudget = "probe_budget"
	ReasonDeadline    = "deadline"
)

// errExhausted is the sentinel wrapped by every graceful-exhaustion error.
// Traversals match it with errors.Is to separate "the run's allowance ran
// out" (degrade to a partial result) from genuine failures (propagate).
var errExhausted = errors.New("core: probe allowance exhausted")

// exhaustedError records which allowance ran out first for this probe.
type exhaustedError struct{ reason string }

func (e *exhaustedError) Error() string {
	return "core: probe allowance exhausted (" + e.reason + ")"
}

func (e *exhaustedError) Is(target error) bool { return target == errExhausted }

// governor enforces one Debug run's probe allowances: the caller's context
// (whose cancellation is a real error), the run's own Options.Deadline (whose
// expiry degrades the run to a partial result), and the probe budget. The
// budget is charged one unit per Oracle.IsAlive call, cache hits included —
// exactly the Stats.SQLExecuted metric — so a budget of at least the serial
// run's probe count can never trip for any worker count: the scheduler
// probes precisely the serial probe set. A serial probe is charged on
// admission; a parallel batch is granted its serial prefix up front, so
// what a budget admits does not depend on which worker claims which node.
type governor struct {
	parent   context.Context // caller's context: its errors abort the run
	probeCtx context.Context // parent plus Options.Deadline: its expiry is graceful

	limited   bool
	remaining atomic.Int64

	// fl records the exhaustion event; set once by debugWith before any
	// probe, nil when the run is not recorded.
	fl *flight.Log

	mu sync.Mutex
	// reason is the first allowance to run out; "" while none has.
	// guarded by mu.
	reason string
}

func newGovernor(parent, probeCtx context.Context, budget int) *governor {
	g := &governor{parent: parent, probeCtx: probeCtx}
	if budget > 0 {
		g.limited = true
		g.remaining.Store(int64(budget))
	}
	return g
}

// admit charges one probe against the allowances. It returns nil when the
// probe may run, the parent context's error verbatim on cancellation, and an
// exhaustedError when the deadline or budget has run out.
func (g *governor) admit() error {
	if err := g.check(); err != nil {
		return err
	}
	if g.limited && g.remaining.Add(-1) < 0 {
		return g.trip(ReasonProbeBudget)
	}
	return nil
}

// check is admit without the charge, for a probe its batch's grant already
// paid for: the parent context's error verbatim on cancellation, an
// exhaustedError once the deadline has passed, nil otherwise.
func (g *governor) check() error {
	if err := g.parent.Err(); err != nil {
		return err
	}
	if g.probeCtx.Err() != nil {
		return g.trip(ReasonDeadline)
	}
	return nil
}

// grant charges a batch of n probes up front and returns how many the
// budget allows, min(remaining, n): the batch then probes only its first
// that many nodes, the ones the serial loop would have admitted. A run
// grants one batch at a time, and the runs that share a governor go one
// after another (traverse), so none grants while another admits and
// nothing charges the budget between the load and the add.
func (g *governor) grant(n int) int {
	if !g.limited {
		return n
	}
	k := max(0, min(g.remaining.Load(), int64(n)))
	g.remaining.Add(-k)
	return int(k)
}

// graceful converts a probe failure caused by the run's own deadline into the
// exhaustion sentinel: probe SQL executes under probeCtx, so expiry mid-query
// surfaces as a wrapped context error rather than through admit. It returns
// nil when err is a genuine failure the traversal must propagate — including
// cancellation of the caller's own context.
func (g *governor) graceful(err error) error {
	if g.parent.Err() != nil || g.probeCtx.Err() == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return g.trip(ReasonDeadline)
	}
	return nil
}

func (g *governor) trip(reason string) error {
	g.mu.Lock()
	first := g.reason == ""
	if first {
		g.reason = reason
	}
	g.mu.Unlock()
	if first {
		// Only the transition is recorded: every admit after exhaustion
		// trips again, and a ring full of identical exhaustion events would
		// bury the run's actual history.
		g.fl.Emit(flight.Exhausted, -1, "", false, 0, reason)
	}
	return &exhaustedError{reason: reason}
}

// exhausted reports whether any allowance ran out, and which one tripped
// first.
func (g *governor) exhausted() (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reason, g.reason != ""
}
