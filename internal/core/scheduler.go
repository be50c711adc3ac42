package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the Phase 3 probe scheduler: a bounded worker pool that
// resolves independent lattice nodes concurrently while keeping every
// observable output byte-identical to the serial traversal.
//
// The correctness argument rests on one structural fact: the classification
// rules only ever cross levels. Rule R1 (alive => descendants alive) walks
// strictly downward and rule R2 (dead descendant => dead) strictly upward,
// and a lattice level is the node's vertex count, so probing a node can
// never change the status of another node on the same level. The level
// buckets of bottomUp/topDown are also final before their level starts
// (parents sit one level up, children one level down). Together that means
// the set of nodes a serial traversal would probe at level L is known the
// moment level L begins — and a pool can probe them in any interleaving,
// as long as the resulting classifications are *committed* in the serial
// order. That replay is what keeps the node statuses (and so the MPANs),
// the inferred counts, and Stats.SQLExecuted exactly equal to the Workers=1
// run.
//
// SBH is inherently sequential — every probe choice depends on all previous
// verdicts through the search-space weights — so it ignores the worker
// bound; BU and TD parallelize across their independent per-MTN runs
// instead, which is where their redundant probing makes concurrency pay.

// MaxWorkers caps Options.Workers; beyond this the scheduler is goroutine
// churn, not throughput. It is exported so callers that surface a workers
// knob (the HTTP server, CLIs) share the single authoritative bound instead
// of hard-coding their own.
const MaxWorkers = 64

// ClampWorkers normalizes an Options.Workers value: <= 0 selects serial
// probing (the default behavior), and MaxWorkers bounds resource use. Debug
// applies it internally; callers validating user input should use it too so
// their accepted range can never drift from the scheduler's.
func ClampWorkers(w int) int {
	if w <= 0 {
		return 1
	}
	if w > MaxWorkers {
		return MaxWorkers
	}
	return w
}

// probeOutcome is one node's resolved verdict. done distinguishes "probed"
// from "skipped because the batch was already failing or cancelled".
type probeOutcome struct {
	alive bool
	err   error
	done  bool
}

// dispatch probes xs through the worker pool and returns outcomes aligned
// with xs. Workers claim indexes from an atomic cursor, so the pool stays
// busy regardless of per-probe skew; once any probe fails (or the context
// is cancelled) the remaining unclaimed work is skipped. A skipped index is
// always preceded by a failed one, which is what lets the caller resolve
// errors in deterministic, serial order: workers check for failure before
// claiming and probe every index they claim, so only indexes above the
// failed one go unclaimed. Checking after the claim would let a worker drop
// a lower index when a higher one failed in between.
//
// The budget was charged when the batch was granted (see batch), so each
// worker checks only cancellation and the deadline before its probe.
func (r *run) dispatch(xs []int) []probeOutcome {
	outcomes := make([]probeOutcome, len(xs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	workers := min(r.workers, len(xs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || r.ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(xs) {
					return
				}
				oc := probeOutcome{err: r.gov.check(), done: true}
				if oc.err == nil {
					oc.alive, oc.err = r.ask(xs[i])
				}
				outcomes[i] = oc
				if oc.err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return outcomes
}

// commit replays a batch's outcomes in slice order — the order the serial
// traversal would have applied them — so classifications and inferred
// counts evolve identically to Workers=1. The first real error in order is
// returned, matching where a serial run would have stopped.
// Graceful-exhaustion outcomes, from a deadline that passed mid-batch, are
// different: every verdict the pool did land is still committed (they are
// true database answers, and result only reports what the committed
// statuses guarantee), and the exhaustion sentinel is returned at the end so
// the caller degrades to a partial result instead of discarding the batch.
func (r *run) commit(xs []int, outcomes []probeOutcome) error {
	var exhausted error
	for i, x := range xs {
		oc := outcomes[i]
		if !oc.done {
			if exhausted != nil {
				// The pool stopped claiming after a lower-index exhaustion;
				// later indexes may still carry verdicts, so keep scanning.
				continue
			}
			// Skips happen only after a failure at a lower index (already
			// returned above) or on cancellation.
			if err := r.ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("core: probe of %s skipped without cause", r.sub.node(x))
		}
		if oc.err != nil {
			if errors.Is(oc.err, errExhausted) {
				if exhausted == nil {
					exhausted = oc.err
				}
				continue
			}
			return oc.err
		}
		r.classify(x, oc.alive, false)
	}
	return exhausted
}

// batch probes pending, unknown nodes whose verdicts cannot settle one
// another, through the pool and commits the verdicts in serial order. The governor first
// grants the batch a prefix of pending, the nodes the serial loop would
// have admitted, and only those are dispatched. A batch the budget cut
// short then returns the exhaustion sentinel, as the serial loop's next
// admit would have.
func (r *run) batch(pending []int) error {
	k := r.gov.grant(len(pending))
	if err := r.commit(pending[:k], r.dispatch(pending[:k])); err != nil || k == len(pending) {
		return err
	}
	return r.gov.trip(ReasonProbeBudget)
}

// resolveLevel settles one traversal level: the still-unknown nodes of xs
// (which is sorted) are probed — as one batch when the run has workers —
// and their verdicts committed in serial order. Nodes already classified by
// cross-level inference cost nothing, exactly as in the serial loop.
func (r *run) resolveLevel(xs []int) error {
	pending := make([]int, 0, len(xs))
	for _, x := range xs {
		if r.status[x] == stUnknown {
			pending = append(pending, x)
		}
	}
	if r.workers <= 1 || len(pending) <= 1 {
		for _, x := range xs {
			if err := r.evaluate(x); err != nil {
				return err
			}
		}
		return nil
	}
	return r.batch(pending)
}

// runMTNsParallel executes the independent single-MTN runs of the no-reuse
// strategies (BU, TD) concurrently: each MTN gets a private run (private
// statuses — re-probing shared descendants is the point of these
// baselines), the pool is bounded by workers, and results merge in MTN order
// afterwards, so the accumulated Output and the summed probe/inferred counts
// match the serial loop exactly.
func (sys *System) runMTNsParallel(ctx context.Context, sub *sublattice, oracle Oracle, sd seed, strategy Strategy, workers int, gov *governor) (traverseResult, int, error) {
	n := len(sub.mtns)
	results := make([]traverseResult, n)
	inferredBy := make([]int, n)
	errs := make([]error, n)
	done := make([]bool, n)

	runOne := func(mi int) {
		r := newRun(sub, oracle, []int{mi})
		// Parallel across MTNs, serial within: the runs admit their probes
		// one at a time, and none dispatches a batch whose grant could race
		// another run's admit.
		r.ctx, r.workers, r.gov = ctx, 1, gov
		var err error
		if strategy == BU {
			err = r.bottomUp(sd)
		} else {
			err = r.topDown(sd)
		}
		// When the shared governor runs dry mid-run, finish keeps the
		// guarantees this MTN's run established and the remaining runs
		// proceed: with no budget left they settle probe-free knowledge
		// (base levels, pins) and report partial results of their own.
		results[mi], err = r.finish(err)
		inferredBy[mi] = r.inferred
		errs[mi] = err
		done[mi] = true
	}

	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check before claiming, as in dispatch: a claimed run is
				// always executed, so a skipped one lies above a failure.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				mi := int(next.Add(1)) - 1
				if mi >= n {
					return
				}
				runOne(mi)
				if errs[mi] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()

	acc := traverseResult{mpans: make(map[int][]int)}
	inferred := 0
	for mi := 0; mi < n; mi++ {
		if errs[mi] != nil {
			return traverseResult{}, 0, errs[mi]
		}
		if !done[mi] {
			if err := ctx.Err(); err != nil {
				return traverseResult{}, 0, err
			}
			return traverseResult{}, 0, fmt.Errorf("core: MTN run %d skipped without cause", mi)
		}
		acc.merge(results[mi])
		inferred += inferredBy[mi]
	}
	sort.Ints(acc.aliveMTNs)
	sort.Ints(acc.deadMTNs)
	return acc, inferred, nil
}
