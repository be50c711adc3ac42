package core

import (
	"context"
	"testing"
	"time"

	roaring "kwsdbg/internal/bitset"
	"kwsdbg/internal/lint/hotpath"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/probecache"
)

// budgetEntry pins the runtime allocation budget for one //kws:hotpath
// function from the generated manifest. Most entries run a warm-path
// AllocsPerRun measurement here; an entry whose receiver is unexported in
// another package, or whose warm path is exercised through a caller in this
// table, names its covering harness instead.
type budgetEntry struct {
	budget    float64
	run       func(t *testing.T) float64
	coveredBy string
}

// TestHotpathAllocBudgets is the runtime half of the //kws:hotpath contract.
// The static analyzer (kwslint/hotpath) forbids allocation-prone constructs
// in annotated functions; this test walks the generated manifest and pins an
// actual warm-path allocation count for every entry, so an annotation cannot
// be added (or a hot path regressed) without this table noticing. Warm probe
// servicing and flight logging are pinned at zero.
func TestHotpathAllocBudgets(t *testing.T) {
	sys := productSystem(t)
	kws := []string{"saffron", "scented", "candle"}
	ctx := context.Background()

	// The bitset harnesses need a node the bitset engine covers (node 0 is
	// the unanchored root, which always falls back to SQL).
	probeNode := -1
	for i := 0; i < sys.lat.Len(); i++ {
		node := sys.lat.Node(i)
		key := probecache.Key(node.Label, node.CopyMask, kws)
		if _, ok, _ := sys.bits.Probe(node, kws, key); ok {
			probeNode = i
			break
		}
	}
	if probeNode < 0 {
		t.Fatal("no bitset-coverable node in the product lattice")
	}

	// warmIsAlive measures one oracle's warm IsAlive on node after a cold
	// probe has executed (and stored the verdict).
	warmIsAlive := func(t *testing.T, o *oracle, node int) float64 {
		if _, err := o.IsAlive(node); err != nil {
			t.Fatalf("warmup probe: %v", err)
		}
		return testing.AllocsPerRun(1000, func() {
			if _, err := o.IsAlive(node); err != nil {
				t.Fatalf("warm probe: %v", err)
			}
		})
	}
	// steps are the two hot steps of (*oracle).IsAlive, each under the
	// manifest name of the oracle type it replaced: a prepared probe the
	// verdict cache answers, and a bitset probe the evaluator's memo
	// answers. Both keep their own row so a regression names its step.
	steps := []struct {
		name string
		run  func(t *testing.T) float64
	}{
		{"kwsdbg/internal/core.(*bitsetOracle).IsAlive", func(t *testing.T) float64 {
			o := sys.newOracle(ctx, kws, nil)
			o.bits = sys.bits
			return warmIsAlive(t, o, probeNode)
		}},
		{"kwsdbg/internal/core.(*preparedOracle).IsAlive", func(t *testing.T) float64 {
			o := sys.newOracle(ctx, kws, nil)
			cache := probecache.New(probecache.Config{})
			o.view = cache.SyncVersions(sys.eng.Versions())
			o.cache = cache
			return warmIsAlive(t, o, 0)
		}},
	}

	harness := map[string]budgetEntry{
		"kwsdbg/internal/bitset.(*Bitmap).Contains": {budget: 0, run: func(t *testing.T) float64 {
			b := roaring.FromSorted([]uint32{1, 5, 9, 70000})
			return testing.AllocsPerRun(1000, func() {
				if !b.Contains(70000) || b.Contains(6) {
					t.Fatal("wrong membership")
				}
			})
		}},
		// And materializes a result bitmap; the budget covers the result
		// header and its key/container slices, with container storage coming
		// from the pool (Release returns it).
		"kwsdbg/internal/bitset.(*Bitmap).And": {budget: 8, run: func(t *testing.T) float64 {
			a := roaring.FromSorted([]uint32{1, 2, 3, 100, 70000, 70001})
			b := roaring.FromSorted([]uint32{2, 100, 200, 70001})
			return testing.AllocsPerRun(200, func() {
				c := a.And(b)
				if c.Cardinality() != 3 {
					t.Fatal("wrong intersection")
				}
				c.Release()
			})
		}},
		// The single probe pipeline, warm on its two hot steps (see steps
		// below). The entry's cost is the worse of the two.
		"kwsdbg/internal/core.(*oracle).IsAlive": {budget: 0, run: func(t *testing.T) float64 {
			worst := 0.0
			for _, s := range steps {
				worst = max(worst, s.run(t))
			}
			return worst
		}},
		"kwsdbg/internal/core/bitprobe.(*Evaluator).Probe": {budget: 0, run: func(t *testing.T) float64 {
			node := sys.lat.Node(probeNode)
			key := probecache.Key(node.Label, node.CopyMask, kws)
			if _, ok, cause := sys.bits.Probe(node, kws, key); !ok {
				t.Fatalf("probe declined: %s", cause)
			}
			return testing.AllocsPerRun(1000, func() {
				if _, ok, _ := sys.bits.Probe(node, kws, key); !ok {
					t.Fatal("warm probe declined")
				}
			})
		}},
		"kwsdbg/internal/core/bitprobe.(*Evaluator).evaluate": {
			coveredBy: "kwsdbg/internal/core/bitprobe.(*Evaluator).Probe",
		},
		// The join kernel and its membership test: their receivers are
		// unexported, so the engine's package-local harness is the budget
		// (TestEnumerateAllocFree runs a compiled three-way join whose
		// lookup step tests membership).
		"kwsdbg/internal/engine.(*execState).enumerate": {
			coveredBy: "kwsdbg/internal/engine.TestEnumerateAllocFree",
		},
		"kwsdbg/internal/engine.(*rowSet).has": {
			coveredBy: "kwsdbg/internal/engine.TestEnumerateAllocFree",
		},
		"kwsdbg/internal/engine.(*PreparedCache).Get": {budget: 0, run: func(t *testing.T) float64 {
			o := sys.newOracle(ctx, kws, nil)
			n := o.node(0)
			if _, err := o.handle(0, n); err != nil { // compiles and Puts the handle
				t.Fatalf("compile handle: %v", err)
			}
			key := n.key
			return testing.AllocsPerRun(1000, func() {
				if sys.prepared.Get(key) == nil {
					t.Fatal("warm handle missing")
				}
			})
		}},
		// Phase 1's pruning kernel allocates its result set and nothing per
		// node.
		"kwsdbg/internal/lattice.(*Lattice).Prune": {budget: 1, run: func(t *testing.T) float64 {
			var tables [][]string
			for _, kw := range kws {
				tables = append(tables, sys.eng.Index().Tables(kw))
			}
			b := sys.lat.Bind(tables)
			want := sys.lat.Prune(b).Len()
			return testing.AllocsPerRun(1000, func() {
				if sys.lat.Prune(b).Len() != want {
					t.Fatal("warm prune changed its survivors")
				}
			})
		}},
		// record's receiver is unexported; its package-local harness is the
		// budget (TestLookupRecordAllocFree in internal/invidx).
		"kwsdbg/internal/invidx.lookupMetrics.record": {
			coveredBy: "kwsdbg/internal/invidx.TestLookupRecordAllocFree",
		},
		"kwsdbg/internal/obs/flight.(*Log).Emit": {budget: 0, run: func(t *testing.T) float64 {
			rec := flight.NewRecorder(64)
			l := flight.NewLog(rec, "alloc-budget", false)
			return testing.AllocsPerRun(1000, func() {
				l.Emit(flight.SQLExec, 1, "k", true, time.Millisecond, "")
			})
		}},
		"kwsdbg/internal/probecache.(*Cache).Get": {budget: 0, run: func(t *testing.T) float64 {
			c := probecache.New(probecache.Config{})
			c.Put("k", true)
			return testing.AllocsPerRun(1000, func() {
				if alive, ok := c.Get("k"); !ok || !alive {
					t.Fatal("expected cached hit")
				}
			})
		}},
		"kwsdbg/internal/probecache.(*Cache).Lookup": {budget: 0, run: func(t *testing.T) float64 {
			c := probecache.New(probecache.Config{})
			c.Put("k", true)
			return testing.AllocsPerRun(1000, func() {
				if alive, outcome := c.Lookup("k"); outcome != probecache.Hit || !alive {
					t.Fatal("expected cached hit")
				}
			})
		}},
	}

	seen := make(map[string]bool, len(harness))
	for _, name := range hotpath.Manifest {
		seen[name] = true
		e, ok := harness[name]
		if !ok {
			t.Errorf("//kws:hotpath function %s has no allocation harness; add a budgetEntry to this table", name)
			continue
		}
		if e.coveredBy != "" {
			if e.run != nil {
				t.Errorf("%s sets both run and coveredBy; pick one", name)
			}
			continue
		}
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			if got := e.run(t); got > e.budget {
				t.Errorf("%s allocates %v per warm call, budget %v", name, got, e.budget)
			}
		})
	}
	for _, s := range steps {
		s := s
		t.Run(s.name, func(t *testing.T) {
			if got := s.run(t); got > 0 {
				t.Errorf("(*oracle).IsAlive step %s allocates %v per warm call, budget 0", s.name, got)
			}
		})
	}
	// A harness row whose function lost its annotation is stale: the static
	// lint no longer guards the function, so the budget is a lie.
	for name := range harness {
		if !seen[name] {
			t.Errorf("harness entry %s is not in the //kws:hotpath manifest; annotate the function or drop the row", name)
		}
	}
}
