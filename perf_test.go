// Timing guard: one relative-cost bound that must hold on every build, the
// flight recorder's overhead. Serving-stack performance itself is measured
// by kwsbench (cmd/kwsbench); this test only pins a ratio a regression would
// silently break. It lives in the root package because `make race` does not
// test it: race instrumentation distorts exactly the ratio asserted here.
package kwsdbg

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/obs/flight"
)

// perfSystem builds the level-3 DBLife debugger the guard measures.
func perfSystem(t *testing.T) *core.System {
	t.Helper()
	eng, err := dblife.Generate(dblife.Config{Seed: 1, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(eng, lattice.Options{MaxJoins: 2, KeywordSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFlightOverheadBudget enforces the recorder's acceptance bar: with ring
// recording attached to every run (the always-on server configuration),
// Debug must stay within 5% of the recorder-off cost at serial and parallel
// worker counts. The verdict cache is bypassed so every probe runs its full
// lifecycle, the event-dense worst case.
//
// The recorder costs a few percent of a Debug call (about 13 events per
// query — admit, sql_exec and verdict for each probe — each one lock of the
// recorder's mutex), close to run-to-run noise, so each worker count runs
// many short off/on workload sweeps in alternating order and keeps each
// side's fastest. Interference only ever slows a sweep
// down, so the minima are the clean costs, sampled from the same warm epoch
// of the process. A real slowdown shows in every attempt; scheduler jitter
// does not.
func TestFlightOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement is slow")
	}
	sys := perfSystem(t)
	queries := dblife.Workload()
	rec := flight.NewRecorder(flight.DefaultRingSize)
	sweep := func(workers int, record bool) float64 {
		start := time.Now()
		for _, q := range queries {
			ctx := context.Background()
			if record {
				ctx = flight.NewContext(ctx, flight.NewLog(rec, "overhead", false))
			}
			if _, err := sys.DebugContext(ctx, q.Keywords, core.Options{
				Strategy: core.RE, Workers: workers, BypassCache: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(queries))
	}
	sweep(1, false) // builds the inverted index outside the measurement

	// At ~700 pairs the two minima agree to well under a percent on pure
	// noise; a sweep is under a millisecond, so this is still seconds.
	const budget, pairs = 0.05, 700
	var worst float64
	for attempt := 0; attempt < 4; attempt++ {
		// A GC cycle landing inside one side of the comparison is the
		// dominant false-positive source on small hosts.
		runtime.GC()
		worst = 0
		for _, w := range []int{1, 8} {
			off, on := math.Inf(1), math.Inf(1)
			for i := 0; i < pairs; i++ {
				for _, record := range [2]bool{i%2 == 0, i%2 != 0} {
					if ns := sweep(w, record); record {
						on = min(on, ns)
					} else {
						off = min(off, ns)
					}
				}
			}
			worst = max(worst, on/off-1)
		}
		if worst <= budget {
			t.Logf("worst overhead %.1f%%", 100*worst)
			return
		}
		t.Logf("attempt %d: worst overhead %.1f%% over the %.0f%% budget, remeasuring", attempt+1, 100*worst, 100*budget)
	}
	t.Errorf("flight recorder overhead %.1f%% exceeds the %.0f%% budget in 4 consecutive measurements", 100*worst, 100*budget)
}
