package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"kwsdbg/internal/storage"
)

func mustPrepare(t *testing.T, e *Engine, sql string) *Prepared {
	t.Helper()
	p, err := e.PrepareQuery(sql)
	if err != nil {
		t.Fatalf("PrepareQuery(%s): %v", sql, err)
	}
	return p
}

// A prepared handle must return exactly what the text path returns, for every
// query shape the executor supports, with and without a shared candidate
// cache.
func TestPreparedMatchesQuery(t *testing.T) {
	e := productEngine(t)
	queries := []string{
		"SELECT * FROM Item",
		"SELECT COUNT(*) FROM Item WHERE cost > 4",
		"SELECT 1 FROM Item WHERE name CONTAINS 'candle' LIMIT 1",
		"SELECT name FROM Item WHERE (name CONTAINS 'saffron' OR description CONTAINS 'saffron')",
		"SELECT t1.name FROM PType t0, Item t1 WHERE t1.ptype = t0.id AND t0.ptype CONTAINS 'candle'",
		"SELECT * FROM Item t0, Color t1 WHERE t0.color = t1.id AND t1.color = 'red' LIMIT 2",
	}
	cands := NewCandidateCache()
	for _, sql := range queries {
		want := mustQuery(t, e, sql)
		p := mustPrepare(t, e, sql)
		for _, cache := range []*CandidateCache{nil, cands} {
			got, err := p.Exec(cache)
			if err != nil {
				t.Fatalf("Exec(%s): %v", sql, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Columns, want.Columns) {
				t.Errorf("prepared %s (cands=%v):\n got %+v\nwant %+v", sql, cache != nil, got.Rows, want.Rows)
			}
		}
	}
}

func TestPrepareRejectsNonSelect(t *testing.T) {
	e := productEngine(t)
	if _, err := e.PrepareQuery("INSERT INTO PType VALUES (9, 'wax')"); err == nil {
		t.Error("PrepareQuery(INSERT) succeeded")
	}
	if _, err := e.PrepareQuery("SELECT * FROM nope"); err == nil {
		t.Error("PrepareQuery(unknown table) succeeded")
	}
}

// The acceptance regression: an INSERT between two executions of the same
// handle — sharing one candidate cache — must be visible to the second
// execution. Neither the compiled plan nor the cached candidate set may
// outlive the data version they were computed at.
func TestPreparedReplansAfterInsert(t *testing.T) {
	e := productEngine(t)
	p := mustPrepare(t, e, "SELECT * FROM Item WHERE name CONTAINS 'lavender'")
	cands := NewCandidateCache()
	res, err := p.Exec(cands)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("pre-insert rows = %d", len(res.Rows))
	}
	if _, err := e.Exec("INSERT INTO Item VALUES (5, 'lavender candle', 2, 3, 2, 7.5, 'fresh')"); err != nil {
		t.Fatalf("Exec(INSERT): %v", err)
	}
	res, err = p.Exec(cands)
	if err != nil {
		t.Fatalf("Exec after insert: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("post-insert rows = %d, want 1 (stale plan or candidate set)", len(res.Rows))
	}
}

// InvalidateIndex bumps the data version without changing row counts; a
// handle must replan through it just like through an INSERT.
func TestPreparedReplansAfterInvalidate(t *testing.T) {
	e := productEngine(t)
	p := mustPrepare(t, e, "SELECT * FROM Color WHERE synonyms CONTAINS 'turquoise'")
	if res, _ := p.Exec(nil); len(res.Rows) != 0 {
		t.Fatalf("pre-update rows = %d", len(res.Rows))
	}
	tbl, _ := e.Database().Table("Color")
	if err := tbl.Update(0, storage.Row{
		storage.IntV(1), storage.TextV("red"), storage.TextV("crimson, orange, turquoise"),
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	e.InvalidateIndex()
	res, err := p.Exec(nil)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("post-invalidate rows = %d, want 1", len(res.Rows))
	}
}

// Two aliases of the same relation with the same local predicate must share
// one candidate set: the cache key is alias-independent.
func TestCandidateCacheSharesAcrossAliases(t *testing.T) {
	e := productEngine(t)
	cands := NewCandidateCache()
	a := mustPrepare(t, e, "SELECT 1 FROM Item t0 WHERE t0.name CONTAINS 'candle' LIMIT 1")
	b := mustPrepare(t, e, "SELECT 1 FROM Item t7 WHERE t7.name CONTAINS 'candle' LIMIT 1")
	for _, p := range []*Prepared{a, b} {
		if _, err := p.Exec(cands); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}
	hits, misses := cands.Stats()
	if misses != 1 || hits != 1 {
		t.Errorf("cands stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// A different literal is a different set.
	c := mustPrepare(t, e, "SELECT 1 FROM Item t0 WHERE t0.name CONTAINS 'oil' LIMIT 1")
	if _, err := c.Exec(cands); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if _, misses := cands.Stats(); misses != 2 {
		t.Errorf("misses after distinct literal = %d, want 2", misses)
	}
}

func TestPreparedCacheLRU(t *testing.T) {
	e := productEngine(t)
	pc := NewPreparedCache(2, "test")
	p1 := mustPrepare(t, e, "SELECT * FROM PType")
	p2 := mustPrepare(t, e, "SELECT * FROM Color")
	p3 := mustPrepare(t, e, "SELECT * FROM Attr")
	pc.Put("a", p1)
	pc.Put("b", p2)
	if pc.Get("a") != p1 { // touch a: b becomes the LRU victim
		t.Fatal("Get(a) missed")
	}
	pc.Put("c", p3)
	if pc.Get("b") != nil {
		t.Error("b survived eviction, want LRU out")
	}
	if pc.Get("a") != p1 || pc.Get("c") != p3 {
		t.Error("recently used entries evicted")
	}
	st := pc.Stats()
	if st.Path != "test" || st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}

	pc.Resize(0) // disabled: drops everything, stores nothing
	if pc.Len() != 0 {
		t.Errorf("Len after Resize(0) = %d", pc.Len())
	}
	pc.Put("a", p1)
	if pc.Get("a") != nil {
		t.Error("disabled cache stored an entry")
	}

	pc.Resize(-1) // unbounded
	for i := 0; i < 100; i++ {
		pc.Put(fmt.Sprintf("k%d", i), p1)
	}
	if pc.Len() != 100 {
		t.Errorf("unbounded Len = %d, want 100", pc.Len())
	}
}

// TestPreparedCachePutCopiesNewKey checks that a new entry keeps its own
// copy of the key: debug runs pass probe keys that are substrings of a
// larger probe-key table, and an entry holding one would keep the whole
// table alive.
func TestPreparedCachePutCopiesNewKey(t *testing.T) {
	e := productEngine(t)
	pc := NewPreparedCache(4, "test")
	table := strings.Repeat("label\x001=kw", 100)
	key := table[100:200]
	pc.Put(key, mustPrepare(t, e, "SELECT * FROM PType"))
	stored := pc.items[key].Value.(*planEntry).key
	if stored != key {
		t.Fatalf("stored key %q, want %q", stored, key)
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(stored))), uintptr(unsafe.Pointer(unsafe.StringData(table)))
	if p >= lo && p < lo+uintptr(len(table)) {
		t.Fatal("the stored key shares memory with the caller's table")
	}
}

// The engine-level text-path cache: a repeated query string must hit, a
// differently spelled but canonically identical query must hit, and an
// INSERT must not let either serve stale rows.
func TestQueryPlanCache(t *testing.T) {
	e := productEngine(t)
	const q = "SELECT * FROM Item WHERE name CONTAINS 'candle'"
	before := e.PlanCache().Stats()
	first := mustQuery(t, e, q)
	if got := mustQuery(t, e, q); !reflect.DeepEqual(got.Rows, first.Rows) {
		t.Fatal("cached execution diverged")
	}
	// Same query, different spelling: the canonical key must match.
	variant := "SELECT  *  FROM  Item  WHERE  (name CONTAINS 'candle')"
	if got := mustQuery(t, e, variant); !reflect.DeepEqual(got.Rows, first.Rows) {
		t.Fatal("canonical-variant execution diverged")
	}
	after := e.PlanCache().Stats()
	if hits := after.Hits - before.Hits; hits < 2 {
		t.Errorf("plan cache hits = %d, want >= 2 (repeat + canonical variant)", hits)
	}

	if _, err := e.Exec("INSERT INTO Item VALUES (6, 'black candle', 2, 1, 4, 2.5, 'plain')"); err != nil {
		t.Fatalf("Exec(INSERT): %v", err)
	}
	if got := mustQuery(t, e, q); len(got.Rows) != len(first.Rows)+1 {
		t.Errorf("post-insert rows = %d, want %d (stale cached plan)", len(got.Rows), len(first.Rows)+1)
	}
}

// Concurrent Prepare/Select/version-bump over one engine: the plan cache,
// the shared candidate cache, and the replan path must be race-clean (run
// under -race via make race). Storage mutation is never concurrent with
// scans — that is the engine's documented contract (see TestConcurrentSelect
// and core's read-only debug runs) — so the concurrent generation bumps come
// from InvalidateIndex, which forces the exact races the caches must
// survive: simultaneous replans of one handle, single-flight recomputation
// of shared candidate sets, and stale-entry retirement mid-lookup.
func TestPlanCacheConcurrent(t *testing.T) {
	e := productEngine(t)
	const readers = 4
	queries := []string{
		"SELECT COUNT(*) FROM Item",
		"SELECT * FROM Item WHERE name CONTAINS 'candle'",
		"SELECT 1 FROM Item t0, Color t1 WHERE t0.color = t1.id LIMIT 1",
	}
	shared := mustPrepare(t, e, queries[1])
	cands := NewCandidateCache()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			own := mustPrepare(t, e, queries[2])
			for i := 0; i < 50; i++ {
				if _, err := e.Query(queries[i%len(queries)]); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if _, err := shared.Exec(cands); err != nil {
					t.Errorf("Exec shared: %v", err)
					return
				}
				if _, err := own.Exec(cands); err != nil {
					t.Errorf("Exec own: %v", err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			e.InvalidateIndex()
		}
	}()
	wg.Wait()

	// Inserts land at quiesce points; the concurrent reads that follow must
	// all see them — no cached plan or candidate set may survive the bump.
	const inserts = 4
	for i := 0; i < inserts; i++ {
		stmt := fmt.Sprintf("INSERT INTO Item VALUES (%d, 'probe %d', 2, 1, 1, 1.0, 'x')", 100+i, i)
		if _, err := e.Exec(stmt); err != nil {
			t.Fatalf("Exec(INSERT): %v", err)
		}
		want := i + 1
		p := mustPrepare(t, e, "SELECT * FROM Item WHERE name CONTAINS 'probe'")
		fresh := NewCandidateCache()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := mustQuery(t, e, "SELECT * FROM Item WHERE name CONTAINS 'probe'"); len(got.Rows) != want {
					t.Errorf("text path rows = %d, want %d", len(got.Rows), want)
				}
				res, err := p.Exec(fresh)
				if err != nil {
					t.Errorf("Exec: %v", err)
					return
				}
				if len(res.Rows) != want {
					t.Errorf("prepared path rows = %d, want %d", len(res.Rows), want)
				}
			}()
		}
		wg.Wait()
	}
}
