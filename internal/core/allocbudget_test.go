package core

import (
	"context"
	"testing"
	"time"

	"kwsdbg/internal/dblife"
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
// servicing, flight logging and the commit path are pinned at zero.
func TestHotpathAllocBudgets(t *testing.T) {
	sys := productSystem(t)
	kws := []string{"saffron", "scented", "candle"}
	ctx := context.Background()

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
	// steps are the hot steps of (*oracle).IsAlive, so a regression names
	// its step: a prepared probe the verdict cache answers, under the
	// manifest name of the oracle type it replaced, and a new run's first
	// probe of a node, which the cache answers too and whose key the
	// sublattice's key memo holds.
	steps := []struct {
		name string
		run  func(t *testing.T) float64
	}{
		{"kwsdbg/internal/core.(*preparedOracle).IsAlive", func(t *testing.T) float64 {
			o := sys.newOracle(ctx, buildSublattice(sys.lat, []int{0}), kws, nil)
			cache := probecache.New(probecache.Config{})
			o.view = cache.SyncVersions(sys.eng.Versions())
			o.cache = cache
			return warmIsAlive(t, o, 0)
		}},
		{"kwsdbg/internal/core.(*oracle).IsAlive, first probe of a run", func(t *testing.T) float64 {
			sub := buildSublattice(sys.lat, []int{0})
			cache := probecache.New(probecache.Config{})
			view := cache.SyncVersions(sys.eng.Versions())
			newRun := func() *oracle {
				o := sys.newOracle(ctx, sub, kws, nil)
				o.view, o.cache = view, cache
				return o
			}
			if _, err := newRun().IsAlive(0); err != nil { // stores the verdict
				t.Fatalf("cold probe: %v", err)
			}
			// AllocsPerRun calls the function once more than it counts.
			const runs = 1000
			oracles := make([]*oracle, runs+1)
			for i := range oracles {
				oracles[i] = newRun()
			}
			next := 0
			return testing.AllocsPerRun(runs, func() {
				o := oracles[next]
				next++
				if _, err := o.IsAlive(0); err != nil {
					t.Fatalf("first probe: %v", err)
				}
			})
		}},
	}

	harness := map[string]budgetEntry{
		// The per-binding cache lookup every Debug, Search and ReturnNothing
		// call makes, on a key built as phase12 builds it.
		"kwsdbg/internal/core.(*bindingCache).get": {budget: 0, run: func(t *testing.T) float64 {
			if _, err := sys.Debug(kws, Options{}); err != nil { // fills the binding's entry
				t.Fatal(err)
			}
			var tables [][]string
			for _, kw := range kws {
				tables = append(tables, sys.eng.Index().Tables(kw))
			}
			key := appendBindKey(nil, sys.lat.Bind(tables), len(kws))
			return testing.AllocsPerRun(1000, func() {
				if sys.bindings.get(key) == nil {
					t.Fatal("warm binding missing")
				}
			})
		}},
		// The probe pipeline, warm on its hot steps (see steps above): a
		// cold probe executes and stores its verdict, and every later probe
		// of the node is a verdict-cache hit. The entry's cost is the worst
		// step's.
		"kwsdbg/internal/core.(*oracle).IsAlive": {budget: 0, run: func(t *testing.T) float64 {
			worst := 0.0
			for _, s := range steps {
				worst = max(worst, s.run(t))
			}
			return worst
		}},
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
			o := sys.newOracle(ctx, buildSublattice(sys.lat, []int{0}), kws, nil)
			x, key, err := o.node(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := o.handle(0, x, key); err != nil { // compiles and Puts the handle
				t.Fatalf("compile handle: %v", err)
			}
			return testing.AllocsPerRun(1000, func() {
				if sys.prepared.Get(key) == nil {
					t.Fatal("warm handle missing")
				}
			})
		}},
		// Phase 3's commit path: one verdict and the R1/R2 pass it implies,
		// on statuses reset between calls. An alive MTN settles its Desc+,
		// a dead base node its ancestors.
		"kwsdbg/internal/core.(*run).classify": {budget: 0, run: func(t *testing.T) float64 {
			ph, err := sys.phase12(kws, false)
			if err != nil {
				t.Fatal(err)
			}
			sub := buildSublattice(sys.lat, ph.mtnIDs)
			r := newRun(sub, nil, []int{0})
			m := sub.mtns[0]
			if len(sub.desc.row(m)) == 0 || len(sub.asc.row(0)) == 0 {
				t.Fatal("the harness needs an MTN with descendants and a base node with ancestors")
			}
			return testing.AllocsPerRun(1000, func() {
				clear(r.status)
				r.classify(m, true, false)
				clear(r.status)
				r.classify(0, false, false)
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
		// The /debug report's per-entry writer: report imports core, so its
		// package-local harness is the budget (TestQueryEntryAllocFree writes
		// an entry, SQL included, into a slice with room).
		"kwsdbg/internal/report.(*jsonWriter).query": {
			coveredBy: "kwsdbg/internal/report.TestQueryEntryAllocFree",
		},
		"kwsdbg/internal/probecache.(*Cache).Lookup": {budget: 0, run: func(t *testing.T) float64 {
			c := probecache.New(probecache.Config{})
			c.PutFP("k", true, nodeFootprint(sys.lat, 0, kws), c.SyncVersions(sys.eng.Versions()))
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

// TestWarmDebugAllocBudget pins what a warm debug run allocates: SBH over
// DBLife Q1-Q10 at level 5 with a flight log attached, every binding served
// by the per-binding cache and every probe by the verdict cache — the shape
// of a warm /debug request. A replayed run follows the decision path in
// SBH's memo; a fresh one finds the memo empty and runs the lazy-greedy
// loop, as the first run of a binding's path does, and records its path.
// Both read their probe keys from their tuple's memoized table. Each budget
// is the count measured on go1.24 plus 5 %: replayed 79.0, fresh 231.3.
func TestWarmDebugAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		mode   warmMode
		budget float64
	}{
		{"replayed", warmReplayed, 83},
		{"fresh", warmFresh, 243},
	} {
		t.Run(c.name, func(t *testing.T) {
			sweep, queries := warmDebug(t, c.mode)
			perCall := testing.AllocsPerRun(20, sweep) / float64(queries)
			t.Logf("%s warm debug run: %.1f allocations", c.name, perCall)
			if perCall > c.budget {
				t.Errorf("a %s warm debug run allocates %.1f times, budget %v", c.name, perCall, c.budget)
			}
		})
	}
}

// warmMode says what the runs of a warm sweep find in their sublattice's
// memos besides the verdicts.
type warmMode int

const (
	// warmReplayed runs find their decision path and their key table.
	warmReplayed warmMode = iota
	// warmFresh runs find their key table, but every SBH memo is emptied
	// before each run.
	warmFresh
	// warmPrivate runs find their decision path, but every key memo is
	// empty and charged full, so each run builds a table of its own, as a
	// tuple that finds no room does.
	warmPrivate
)

// warmDebug returns a sweep of warm SBH debug runs over DBLife Q1-Q10 at
// level 5, each with a flight log, on a System of its own, and the number
// of runs in a sweep. One sweep has run already: it filled the binding,
// verdict and handle caches, recorded every query's decision path and
// memoized every query's key table; mode then says what later runs find.
func warmDebug(tb testing.TB, mode warmMode) (func(), int) {
	base := dblifeSystem(tb, 5)
	sys, err := NewSystem(base.eng, base.lat)
	if err != nil {
		tb.Fatal(err)
	}
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	rec := flight.NewRecorder(flight.DefaultRingSize)
	queries := dblife.Workload()
	sweep := func() {
		for _, q := range queries {
			if mode == warmFresh {
				eachSub(sys, forgetPaths)
			}
			ctx := flight.NewContext(context.Background(), flight.NewLog(rec, "warm-debug", false))
			if _, err := sys.DebugContext(ctx, q.Keywords, Options{Strategy: SBH}); err != nil {
				tb.Fatalf("%s: %v", q.ID, err)
			}
		}
	}
	sweep()
	if mode == warmPrivate {
		eachSub(sys, fillKeyMemo)
	}
	return sweep, len(queries)
}

// eachSub calls f on the sublattice of every binding sys has cached.
func eachSub(sys *System, f func(*sublattice)) {
	c := sys.bindings
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if sub := el.Value.(*bindingSlot).e.sub; sub != nil {
			f(sub)
		}
	}
}

// forgetPaths empties sub's SBH memo.
func forgetPaths(sub *sublattice) {
	m := &sub.sbh
	m.mu.Lock()
	m.paths.Store(nil)
	m.bytes = 0
	m.mu.Unlock()
}

// fillKeyMemo empties sub's key memo and charges it its bound, so it
// records no table again.
func fillKeyMemo(sub *sublattice) {
	m := &sub.keyMemo
	m.mu.Lock()
	m.tables.Store(nil)
	m.bytes = sub.bytes()
	m.mu.Unlock()
}
