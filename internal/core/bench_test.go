package core

import (
	"context"
	"fmt"
	"testing"

	"kwsdbg/internal/figure2"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
)

func benchSystem(b *testing.B) *System {
	b.Helper()
	eng, err := figure2.Engine()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := Build(eng, lattice.Options{MaxJoins: 2})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkDebugStrategies measures the full online pipeline per strategy on
// the Figure 2 running example. Its SBH runs replay the decision path the
// first one recorded; BenchmarkWarmDebug times fresh SBH runs too.
func BenchmarkDebugStrategies(b *testing.B) {
	sys := benchSystem(b)
	kws := []string{"saffron", "scented", "candle"}
	for _, strat := range append(append([]Strategy{}, Strategies...), RE) {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Debug(kws, Options{Strategy: strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmDebug measures the core of a warm /debug request: SBH over
// DBLife Q1-Q10 at level 5 with a flight log, every binding and verdict
// cached (warmDebug). "replayed" runs follow their recorded decision paths
// and read their memoized key tables; "fresh" runs find SBH's memo empty
// and run the lazy-greedy loop; "private" runs replay their paths but find
// no key table and no room, so each builds its own. It reports
// microseconds per query.
func BenchmarkWarmDebug(b *testing.B) {
	for _, c := range []struct {
		name string
		mode warmMode
	}{{"replayed", warmReplayed}, {"fresh", warmFresh}, {"private", warmPrivate}} {
		b.Run(c.name, func(b *testing.B) {
			sweep, queries := warmDebug(b, c.mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*queries), "us/query")
		})
	}
}

// BenchmarkPhase12 isolates keyword binding, pruning, and MTN discovery.
func BenchmarkPhase12(b *testing.B) {
	sys := benchSystem(b)
	kws := []string{"saffron", "scented", "candle"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Analyze(kws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSublatticeBuild isolates the Phase 2 closure construction.
func BenchmarkSublatticeBuild(b *testing.B) {
	sys := benchSystem(b)
	ph, err := sys.phase12([]string{"saffron", "scented", "candle"}, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sub := buildSublattice(sys.lat, ph.mtnIDs); sub.len() == 0 {
			b.Fatal("empty sublattice")
		}
	}
}

// BenchmarkProbeCompile quantifies the prepared pipeline's per-probe setup:
// "render" is the text path's per-probe cost of materializing the SQL string
// (what every probe paid before handles); "compile" resolves a fresh handle
// from the AST (the handle-cache miss path); "handle" looks a warm handle up
// through the run's handle memo — the cost every repeat probe actually pays.
func BenchmarkProbeCompile(b *testing.B) {
	sys := benchSystem(b)
	kws := []string{"saffron", "scented", "candle"}
	ph, err := sys.phase12(kws, false)
	if err != nil {
		b.Fatal(err)
	}
	sub := buildSublattice(sys.lat, ph.mtnIDs)
	nodeID := sub.nodeID[sub.len()-1] // deepest node: the costliest render
	b.Run("render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.lat.SQL(sys.lat.Node(nodeID), kws, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel, err := sys.lat.Select(sys.lat.Node(nodeID), kws, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.eng.Prepare(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("handle", func(b *testing.B) {
		o := sys.newOracle(context.Background(), sub, kws, nil)
		x, key, err := o.node(nodeID)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.handle(nodeID, x, key); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.handle(nodeID, x, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDebugWorkers sweeps the probe scheduler's worker counts over the
// strategy with the largest independent batches (RE), the paper's default
// (BUWR), and BU and TD, whose per-MTN runs batch their levels one MTN at a
// time. On a single-core host the parallel runs mainly measure scheduler
// overhead.
func BenchmarkDebugWorkers(b *testing.B) {
	sys := benchSystem(b)
	kws := []string{"saffron", "scented", "candle"}
	for _, strat := range []Strategy{RE, BUWR, BU, TD} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", strat, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sys.Debug(kws, Options{Strategy: strat, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkProbeCacheWarm measures a Debug call when every verdict is served
// from the cross-request probe cache, against the same call bypassing it.
func BenchmarkProbeCacheWarm(b *testing.B) {
	sys := benchSystem(b)
	kws := []string{"saffron", "scented", "candle"}
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	defer sys.SetProbeCache(nil)
	if _, err := sys.Debug(kws, Options{Strategy: RE}); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Debug(kws, Options{Strategy: RE}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bypass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Debug(kws, Options{Strategy: RE, BypassCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
