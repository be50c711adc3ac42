package core_test

// Race-mode tests for the flight recorder's two integration promises:
//
//  1. Recording does not perturb the pipeline. A workers=8 run with the
//     recorder on must render the byte-identical report of the same run with
//     the recorder off — the recorder observes the run, it never steers it.
//  2. The event stream is causally ordered per probe. For every probed node,
//     the globally monotonic sequence numbers must show admission before
//     execution before the committed verdict, no matter how the worker pool
//     interleaved the probes.
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
	// exactly once, so each node's chain must be admit < exec < verdict on
	// both probe steps.
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
			if _, err := sys.DebugContext(ctx, []string{"saffron", "scented", "candle"}, opts); err != nil {
				t.Fatal(err)
			}
			checkProbeOrder(t, fl.Events())
		})
	}
}

// checkProbeOrder requires every probed node's first admit, execution and
// verdict events to appear in that order.
func checkProbeOrder(t *testing.T, events []flight.Event) {
	t.Helper()
	type chain struct{ admit, exec, verdict uint64 } // first seq of each stage
	chains := map[int32]*chain{}
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
		case flight.Admit:
			if c.admit == 0 {
				c.admit = ev.Seq
			}
		case flight.SQLExec, flight.ProbeCacheHit:
			if c.exec == 0 {
				c.exec = ev.Seq
			}
		case flight.Verdict:
			if c.verdict == 0 {
				c.verdict = ev.Seq
			}
		}
	}
	if len(chains) == 0 {
		t.Fatal("no per-node chains recorded")
	}
	for node, c := range chains {
		if c.admit == 0 || c.exec == 0 || c.verdict == 0 {
			t.Errorf("node %d: incomplete chain admit=%d exec=%d verdict=%d", node, c.admit, c.exec, c.verdict)
			continue
		}
		if !(c.admit < c.exec && c.exec < c.verdict) {
			t.Errorf("node %d: order violated: admit=%d exec=%d verdict=%d (want admit < exec < verdict)",
				node, c.admit, c.exec, c.verdict)
		}
	}
}
