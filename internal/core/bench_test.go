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
// the Figure 2 running example.
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
	ph, err := sys.phase12([]string{"saffron", "scented", "candle"})
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
// through the run's per-node memo — the cost every repeat probe actually pays.
func BenchmarkProbeCompile(b *testing.B) {
	sys := benchSystem(b)
	kws := []string{"saffron", "scented", "candle"}
	ph, err := sys.phase12(kws)
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
		o := sys.newOracle(context.Background(), kws, nil)
		n := o.node(nodeID)
		if _, err := o.handle(nodeID, n); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.handle(nodeID, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDebugWorkers sweeps the probe scheduler's worker counts over the
// strategy with the largest independent batches (RE) and the paper's default
// (BUWR). On a single-core host the parallel runs mainly measure scheduler
// overhead.
func BenchmarkDebugWorkers(b *testing.B) {
	sys := benchSystem(b)
	kws := []string{"saffron", "scented", "candle"}
	for _, strat := range []Strategy{RE, BUWR} {
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

// BenchmarkBitsetProbe compares a full Debug call on the prepared path
// against the bitset path, cold (bitset plan/bitmap/memo caches purged every
// iteration) and warm (steady state: every probe is a stamped-memo read).
// The verdict cache is bypassed so every probe actually executes; the
// DBLife per-probe floor is TestBitsetWarmSpeedup in the root package.
func BenchmarkBitsetProbe(b *testing.B) {
	sys := benchSystem(b)
	kws := []string{"saffron", "scented", "candle"}
	b.Run("prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Debug(kws, Options{Strategy: RE, BypassCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bitset-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys.PurgeBitsetCaches()
			if _, err := sys.Debug(kws, Options{Strategy: RE, BypassCache: true, BitsetProbes: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bitset-warm", func(b *testing.B) {
		if _, err := sys.Debug(kws, Options{Strategy: RE, BypassCache: true, BitsetProbes: true}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Debug(kws, Options{Strategy: RE, BypassCache: true, BitsetProbes: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
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
