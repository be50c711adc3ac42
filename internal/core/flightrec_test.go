package core_test

// Race-mode tests for the flight recorder's two integration promises:
//
//  1. Recording does not perturb the pipeline. A workers=8 run with the
//     recorder on must render the byte-identical report of the same run with
//     the recorder off — the recorder observes the run, it never steers it.
//  2. Each probe records one outcome event. For every probed node, the
//     stream holds exactly one verdict-cache hit or execution, after any
//     replan of the node's plan, no matter how the worker pool interleaved
//     the probes, and the outcome events number Stats.SQLExecuted.
//
// These run in the ordinary suite and, more importantly, under `go test
// -race`, where the recorder's mutex — over the ring, the log's counts and
// its capture buffer — is exercised by eight concurrent probe workers.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/core"
	"kwsdbg/internal/figure2"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/report"
)

func buildSystem(t *testing.T) *core.System {
	t.Helper()
	eng, err := figure2.Engine()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(eng, lattice.Options{MaxJoins: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// renderDebug runs one debug call and renders its full JSON report.
func renderDebug(t *testing.T, sys *core.System, ctx context.Context, opts core.Options) []byte {
	t.Helper()
	out, err := sys.DebugContext(ctx, []string{"saffron", "scented", "candle"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.JSONOpts(&buf, out, report.JSONOptions{ShowSQL: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecorderDoesNotPerturbOutput(t *testing.T) {
	// Freeze the clock so latency-derived report fields (sql_ms) are zero in
	// both runs: any remaining byte difference is then a real perturbation.
	restore := clock.SetForTest(func() time.Time { return time.Unix(1438560000, 0) })
	defer restore()

	sys := buildSystem(t)
	for _, strat := range []core.Strategy{core.BUWR, core.TDWR, core.SBH, core.BU} {
		opts := core.Options{Strategy: strat, Workers: 8, BypassCache: true}
		off := renderDebug(t, sys, context.Background(), opts)

		rec := flight.NewRecorder(1024)
		fl := flight.NewLog(rec, "test-run", true)
		on := renderDebug(t, sys, flight.NewContext(context.Background(), fl), opts)

		if !bytes.Equal(off, on) {
			t.Errorf("%v: recorder-on report differs from recorder-off\noff: %s\non:  %s", strat, off, on)
		}
		if fl.Count() == 0 {
			t.Errorf("%v: recorder-on run emitted no events", strat)
		}
	}
}

func TestEventOrderPerProbe(t *testing.T) {
	// BUWR at workers=8 drives the dispatch/commit scheduler: probes race in
	// the pool, verdicts commit in serial order. Each pending node is probed
	// exactly once, so on both probe steps each probed node records exactly
	// one outcome event, after its replan if it has one.
	for _, step := range []struct {
		name string
		opts core.Options
	}{
		{"text", core.Options{TextProbes: true}},
		{"prepared", core.Options{}},
	} {
		t.Run(step.name, func(t *testing.T) {
			sys := buildSystem(t)
			fl := flight.NewLog(flight.NewRecorder(1024), "order", true)
			ctx := flight.NewContext(context.Background(), fl)
			opts := step.opts
			opts.Strategy, opts.Workers, opts.BypassCache = core.BUWR, 8, true
			out, err := sys.DebugContext(ctx, []string{"saffron", "scented", "candle"}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := checkProbeOrder(t, fl.Events()); n != out.Stats.SQLExecuted {
				t.Errorf("%d outcome events, Stats.SQLExecuted = %d", n, out.Stats.SQLExecuted)
			}
		})
	}
}

// TestBudgetedRunEvents reads the real pipeline's event stream when a probe
// budget runs out: the governor records the transition to exhaustion once,
// however many probes it refuses after it, and every probe it let through
// records one outcome event.
func TestBudgetedRunEvents(t *testing.T) {
	const budget = 3
	sys := buildSystem(t)
	for _, strat := range []core.Strategy{core.BUWR, core.RE, core.BU} {
		for _, workers := range []int{1, 8} {
			fl := flight.NewLog(flight.NewRecorder(1024), "budget", true)
			ctx := flight.NewContext(context.Background(), fl)
			out, err := sys.DebugContext(ctx, []string{"saffron", "scented", "candle"}, core.Options{
				Strategy: strat, Workers: workers, BypassCache: true, ProbeBudget: budget,
			})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", strat, workers, err)
			}
			if !out.Incomplete {
				t.Fatalf("%v workers=%d: budget %d did not run out", strat, workers, budget)
			}
			events := fl.Events()
			var exhausted []flight.Event
			for _, ev := range events {
				if ev.Kind == flight.Exhausted {
					exhausted = append(exhausted, ev)
				}
			}
			if len(exhausted) != 1 || exhausted[0].Cause != core.ReasonProbeBudget {
				t.Errorf("%v workers=%d: exhausted events %+v, want one with cause %q",
					strat, workers, exhausted, core.ReasonProbeBudget)
			}
			n := checkProbeOrder(t, events)
			if n != out.Stats.SQLExecuted || n > budget {
				t.Errorf("%v workers=%d: %d outcome events, Stats.SQLExecuted = %d, budget %d",
					strat, workers, n, out.Stats.SQLExecuted, budget)
			}
		}
	}
}

// checkProbeOrder requires every probed node to record exactly one outcome
// event (a verdict-cache hit or an execution, each carrying the verdict),
// with any replan of its plan before its execution, and returns the number
// of outcome events.
func checkProbeOrder(t *testing.T, events []flight.Event) int {
	t.Helper()
	type chain struct {
		outcomes     int
		exec, replan uint64 // seq of the execution and of the last replan
	}
	chains := map[int32]*chain{}
	total := 0
	for _, ev := range events {
		if ev.Node < 0 {
			continue
		}
		c := chains[ev.Node]
		if c == nil {
			c = &chain{}
			chains[ev.Node] = c
		}
		switch ev.Kind {
		case flight.SQLExec:
			c.exec = ev.Seq
			c.outcomes++
			total++
		case flight.ProbeCacheHit:
			c.outcomes++
			total++
		case flight.Replan:
			c.replan = ev.Seq
		}
	}
	if len(chains) == 0 {
		t.Fatal("no per-node chains recorded")
	}
	for node, c := range chains {
		if c.outcomes != 1 {
			t.Errorf("node %d: %d outcome events, want 1", node, c.outcomes)
		}
		if c.replan != 0 && (c.exec == 0 || c.replan > c.exec) {
			t.Errorf("node %d: replan #%d not before its sql_exec #%d", node, c.replan, c.exec)
		}
	}
	return total
}
