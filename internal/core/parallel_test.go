package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"kwsdbg/internal/dblife"
	"kwsdbg/internal/probecache"
)

// normalized strips the execution-dependent fields from an Output — wall
// times and cache hits — leaving exactly what the determinism guarantee
// covers: answers, non-answers, MPAN sets (with ordering), keyword sets, and
// the probe/inference counts.
func normalized(out *Output) Output {
	n := *out
	n.Stats.MapTime = 0
	n.Stats.PruneTime = 0
	n.Stats.MTNTime = 0
	n.Stats.SQLTime = 0
	n.Stats.TraverseTime = 0
	n.Stats.CacheHits = 0
	// Prepared-pipeline accounting depends on what earlier runs warmed
	// (handle cache, candidate sets), not on the query — and is zero by
	// definition on the text path.
	n.Stats.PlanCompiles = 0
	n.Stats.CandSetHits = 0
	n.Stats.CandSetMisses = 0
	// Verdict-repair traffic likewise depends on which writes landed
	// between runs, never on the query.
	n.Stats.Suspects = 0
	n.Stats.Repaired = 0
	return n
}

// TestParallelDeterminism is the scheduler's contract as a property test:
// across random schemas, data, and keyword queries, every strategy run with
// Workers 2 and 8 — cache bypassed and cache enabled — produces an Output
// identical to the serial, uncached run, including SQLExecuted and Inferred.
// The only fields allowed to differ are wall times and CacheHits.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized sweep is slow")
	}
	r := rand.New(rand.NewSource(20150806))
	vocabPlus := []string{"amber", "birch", "cedar", "dune", "ember", "flint", "grove", "haze", "missing"}
	allStrategies := append(append([]Strategy{}, Strategies...), RE)
	for trial := 0; trial < 6; trial++ {
		sys, _ := randomSystem(t, r)
		sys.SetProbeCache(probecache.New(probecache.Config{}))
		for q := 0; q < 4; q++ {
			nk := 1 + r.Intn(3)
			kws := make([]string, nk)
			for i := range kws {
				kws[i] = vocabPlus[r.Intn(len(vocabPlus))]
			}
			for _, strat := range allStrategies {
				base, err := sys.Debug(kws, Options{Strategy: strat, BypassCache: true})
				if err != nil {
					t.Fatalf("trial %d %v %v serial: %v", trial, kws, strat, err)
				}
				want := normalized(base)
				variants := []Options{
					{Strategy: strat, Workers: 2, BypassCache: true},
					{Strategy: strat, Workers: 8, BypassCache: true},
					{Strategy: strat, Workers: 1},
					{Strategy: strat, Workers: 2},
					{Strategy: strat, Workers: 8},
				}
				for _, opts := range variants {
					out, err := sys.Debug(kws, opts)
					if err != nil {
						t.Fatalf("trial %d %v %v workers=%d cache=%v: %v",
							trial, kws, strat, opts.Workers, !opts.BypassCache, err)
					}
					if got := normalized(out); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %v: %v workers=%d cache=%v diverges from serial\ngot:  %+v\nwant: %+v",
							trial, kws, strat, opts.Workers, !opts.BypassCache, got, want)
					}
					if out.Stats.CacheHits > out.Stats.SQLExecuted {
						t.Fatalf("trial %d %v %v: CacheHits %d > SQLExecuted %d",
							trial, kws, strat, out.Stats.CacheHits, out.Stats.SQLExecuted)
					}
				}
			}
		}
	}
}

// TestBudgetedParallelDeterminism is the scheduler's contract under a probe
// budget: a budgeted BUWR, TDWR, RE or SBH run at workers 2, 4 and 8
// produces the budgeted serial run's Output, normalized as in
// TestParallelDeterminism, because each batch is granted its serial prefix
// of the budget before it is dispatched. BU and TD are left out: their
// per-MTN runs spend one budget concurrently.
func TestBudgetedParallelDeterminism(t *testing.T) {
	t.Run("figure2", func(t *testing.T) {
		sys := productSystem(t)
		for _, kws := range figure2Queries {
			checkBudgetedWorkers(t, sys, kws)
		}
	})
	for _, level := range []int{3, 5} {
		t.Run(fmt.Sprintf("dblife-level%d", level), func(t *testing.T) {
			sys := dblifeSystem(t, level)
			for _, q := range dblife.Workload() {
				checkBudgetedWorkers(t, sys, q.Keywords)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(14))
		for trial := 0; trial < 10; trial++ {
			sys, vocab := randomSystem(t, r)
			for q := 0; q < 3; q++ {
				kws := make([]string, 1+r.Intn(3))
				for i := range kws {
					kws[i] = vocab[r.Intn(len(vocab))]
				}
				checkBudgetedWorkers(t, sys, kws)
			}
		}
	})
}

// checkBudgetedWorkers runs kws under budgets from one probe to one short of
// the serial run's count, at workers 1, 2, 4 and 8 with the verdict cache
// bypassed, and requires every worker count to match workers 1.
func checkBudgetedWorkers(t *testing.T, sys *System, kws []string) {
	t.Helper()
	run := func(opts Options) Output {
		t.Helper()
		opts.BypassCache = true
		out, err := sys.Debug(kws, opts)
		if err != nil {
			t.Fatalf("%v %v budget=%d workers=%d: %v", kws, opts.Strategy, opts.ProbeBudget, opts.Workers, err)
		}
		return normalized(out)
	}
	for _, strat := range []Strategy{BUWR, TDWR, RE, SBH} {
		serial := run(Options{Strategy: strat}).Stats.SQLExecuted
		for _, budget := range []int{1, 3, 7, 40, serial - 1} {
			if budget < 1 || budget >= serial {
				continue
			}
			want := run(Options{Strategy: strat, ProbeBudget: budget})
			for _, workers := range []int{2, 4, 8} {
				got := run(Options{Strategy: strat, ProbeBudget: budget, Workers: workers})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %v budget=%d workers=%d diverges from workers 1\ngot:  %+v\nwant: %+v",
						kws, strat, budget, workers, got, want)
				}
			}
		}
	}
}

// TestParallelSessionMatchesSerial runs each strategy in a serial session
// and in a session with Workers=8: the outputs and the strategy's probe
// counts (SQLExecuted, verdict-cache hits included) must match, as they do
// for Debug with a cache (TestParallelDeterminism).
func TestParallelSessionMatchesSerial(t *testing.T) {
	sys := productSystem(t)
	kws := []string{"saffron", "scented", "candle"}
	for _, strat := range []Strategy{BU, TD, BUWR, TDWR} {
		serial, err := sys.NewSession(kws)
		if err != nil {
			t.Fatal(err)
		}
		outS, err := serial.Run(Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v serial: %v", strat, err)
		}
		par, err := sys.NewSession(kws)
		if err != nil {
			t.Fatal(err)
		}
		outP, err := par.Run(Options{Strategy: strat, Workers: 8})
		if err != nil {
			t.Fatalf("%v parallel: %v", strat, err)
		}
		if outS.Stats.SQLExecuted != outP.Stats.SQLExecuted {
			t.Errorf("%v: serial session spent %d probes, parallel %d",
				strat, outS.Stats.SQLExecuted, outP.Stats.SQLExecuted)
		}
		if !reflect.DeepEqual(canonical(outS), canonical(outP)) {
			t.Errorf("%v: parallel session output diverges", strat)
		}
	}
}

// TestConcurrentDebugWithCache hammers one System from many goroutines with
// mixed strategies, worker counts, and cache modes. Run under -race: it
// exercises concurrent probe-cache access, concurrent engine Selects, and
// concurrent scheduler pools sharing one process.
func TestConcurrentDebugWithCache(t *testing.T) {
	sys := productSystem(t)
	sys.SetProbeCache(probecache.New(probecache.Config{MaxEntries: 128, TTL: time.Minute}))
	kws := []string{"saffron", "scented", "candle"}
	ref, err := sys.Debug(kws, Options{Strategy: RE, BypassCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(ref)
	strategies := []Strategy{BU, TD, BUWR, TDWR, SBH, RE}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				opts := Options{
					Strategy:    strategies[(g+i)%len(strategies)],
					Workers:     []int{1, 2, 8}[(g+i)%3],
					BypassCache: (g+i)%4 == 0,
				}
				out, err := sys.Debug(kws, opts)
				if err != nil {
					errCh <- err
					return
				}
				if got := canonical(out); !reflect.DeepEqual(got, want) {
					errCh <- fmt.Errorf("%v workers=%d diverged under concurrency", opts.Strategy, opts.Workers)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestWorkersClamped verifies the Options.Workers normalization contract —
// the exported clamp is the single authority the server reuses too.
func TestWorkersClamped(t *testing.T) {
	for in, want := range map[int]int{-3: 1, 0: 1, 1: 1, 8: 8, MaxWorkers: MaxWorkers, 1000: MaxWorkers} {
		if got := ClampWorkers(in); got != want {
			t.Errorf("ClampWorkers(%d) = %d, want %d", in, got, want)
		}
	}
}
