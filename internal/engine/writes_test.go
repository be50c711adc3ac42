package engine

import (
	"errors"
	"testing"
	"time"

	"kwsdbg/internal/storage"
	"kwsdbg/internal/vervec"
)

// TestRetryPolicyNormalizedZeroMaxDelay is the regression for the doc/behavior
// mismatch: a zero MaxDelay selects the documented 50ms default even when
// BaseDelay exceeds it — it must not silently inherit the oversized base.
func TestRetryPolicyNormalizedZeroMaxDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 2, BaseDelay: 200 * time.Millisecond}.normalized()
	if p.MaxDelay != DefaultRetry.MaxDelay {
		t.Errorf("MaxDelay = %v, want the %v default", p.MaxDelay, DefaultRetry.MaxDelay)
	}
	if p.BaseDelay != 200*time.Millisecond {
		t.Errorf("BaseDelay = %v, want the configured 200ms", p.BaseDelay)
	}

	want := RetryPolicy{MaxAttempts: 1, BaseDelay: DefaultRetry.BaseDelay, MaxDelay: DefaultRetry.MaxDelay}
	if z := (RetryPolicy{}).normalized(); z != want {
		t.Errorf("zero policy normalized to %+v, want %+v", z, want)
	}
	if n := (RetryPolicy{MaxAttempts: -3, BaseDelay: -time.Second, MaxDelay: -time.Second}).normalized(); n.MaxAttempts != 1 || n.BaseDelay != DefaultRetry.BaseDelay || n.MaxDelay != DefaultRetry.MaxDelay {
		t.Errorf("negative policy normalized to %+v", n)
	}
	// BaseDelay > MaxDelay with both set is legal and preserved: the retry
	// loop caps each delay at MaxDelay at use time.
	odd := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second, MaxDelay: time.Millisecond}.normalized()
	if odd.BaseDelay != time.Second || odd.MaxDelay != time.Millisecond {
		t.Errorf("explicit BaseDelay > MaxDelay mangled: %+v", odd)
	}
}

// TestVersionVectorAttributesInserts pins the engine-side write attribution:
// an INSERT bumps exactly its table's counter and its text tokens' counters,
// once, even when a read follows it.
func TestVersionVectorAttributesInserts(t *testing.T) {
	e := productEngine(t)
	e.Index() // built before the write, so the write must maintain it
	vv := e.Versions()
	// Seed-data loading already attributed its own rows; diff against the
	// loaded state, not zero.
	itemBefore := vv.Counter(vervec.TableKey("Item"))
	ptypeBefore := vv.Counter(vervec.TableKey("PType"))
	lavenderBefore := vv.Counter(vervec.TermKey("lavender"))
	saffronBefore := vv.Counter(vervec.TermKey("saffron"))

	candleBefore := vv.Counter(vervec.TermKey("candle"))

	if _, err := e.Exec("INSERT INTO Item VALUES (5, 'lavender candle', 2, 3, 2, 7.5, 'fresh')"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	e.Index()
	if got := vv.Counter(vervec.TableKey("Item")); got != itemBefore+1 {
		t.Errorf("Item counter = %d, want %d", got, itemBefore+1)
	}
	if got := vv.Counter(vervec.TableKey("PType")); got != ptypeBefore {
		t.Errorf("PType counter moved to %d on an Item insert", got)
	}
	for _, term := range []string{"lavender", "candle", "fresh"} {
		if vv.Counter(vervec.TermKey(term)) == 0 {
			t.Errorf("term %q not attributed", term)
		}
	}
	if got := vv.Counter(vervec.TermKey("lavender")); got != lavenderBefore+1 {
		t.Errorf("lavender counter = %d, want %d", got, lavenderBefore+1)
	}
	if got := vv.Counter(vervec.TermKey("candle")); got != candleBefore+1 {
		t.Errorf("candle counter = %d, want %d", got, candleBefore+1)
	}
	if got := vv.Counter(vervec.TermKey("saffron")); got != saffronBefore {
		t.Errorf("unrelated term 'saffron' moved %d -> %d on the insert", saffronBefore, got)
	}

	// A row appended to storage directly and an INSERT into the same table
	// with no read between them are two mutations, each attributed once.
	version := e.DataVersion()
	tbl, _ := e.Database().Table("Item")
	tbl.MustInsert(storage.Row{storage.IntV(6), storage.TextV("plain soap"), storage.IntV(1),
		storage.IntV(1), storage.IntV(1), storage.FloatV(1.5), storage.TextV("mild")})
	if _, err := e.Exec("INSERT INTO Item VALUES (7, 'orchid oil', 1, 1, 1, 2.5, 'rare')"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	e.Index()
	if got := e.DataVersion(); got != version+2 {
		t.Errorf("DataVersion %d -> %d over a direct append and an INSERT, want two steps", version, got)
	}
	if got := vv.Counter(vervec.TermKey("orchid")); got != 1 {
		t.Errorf("orchid counter = %d after one INSERT, want 1", got)
	}
	if got := vv.Counter(vervec.TermKey("soap")); got != 1 {
		t.Errorf("soap counter = %d after one direct append, want 1", got)
	}
}

// TestFailedInsertLeavesNoTrace: a multi-row INSERT whose last row does not
// fit its table stores none of its rows and moves no version.
func TestFailedInsertLeavesNoTrace(t *testing.T) {
	e := productEngine(t)
	e.Index()
	vv := e.Versions()
	tbl, _ := e.Database().Table("PType")
	rows, version := tbl.RowCount(), e.DataVersion()
	names := []string{vervec.TableKey("PType"), vervec.TermKey("blue"), vervec.TermKey("candle")}
	before := vv.Stamp(names)

	_, err := e.Exec("INSERT INTO PType VALUES (5, 'blue candle'), ('x', 'oops')")
	if !errors.Is(err, ErrLiteralType) {
		t.Fatalf("Exec = %v, want a literal type error", err)
	}
	if got := tbl.RowCount(); got != rows {
		t.Errorf("PType rows %d -> %d: the failed statement stored a row", rows, got)
	}
	if got := e.DataVersion(); got != version {
		t.Errorf("DataVersion %d -> %d on a failed statement", version, got)
	}
	if vv.Stale(before) {
		t.Errorf("a failed statement moved the version vector")
	}
	if got := e.Index().Tables("blue"); len(got) != 0 {
		t.Errorf("Tables(blue) = %v after a failed statement", got)
	}
	if _, err := e.Exec("INSERT INTO PType VALUES (5, 'blue candle'), (6)"); err == nil {
		t.Fatal("Exec with a short row succeeded")
	}
	if got := tbl.RowCount(); got != rows {
		t.Errorf("PType rows %d -> %d after a short row", rows, got)
	}
}

// TestDisjointInsertKeepsCompiledPlan is the tentpole's engine-level claim:
// a write into a table outside a handle's FROM footprint must not flush its
// compiled plan, while an intersecting write must.
func TestDisjointInsertKeepsCompiledPlan(t *testing.T) {
	e := productEngine(t)
	p := mustPrepare(t, e, "SELECT 1 FROM Item WHERE name CONTAINS 'candle' LIMIT 1")
	if _, err := p.Exec(nil); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	cold := p.plan.Load()
	if cold == nil {
		t.Fatal("no compiled plan after first execution")
	}

	// Attr is not in the handle's FROM list; the plan must survive.
	if _, err := e.Exec("INSERT INTO Attr VALUES (5, 'scent', 'pine')"); err != nil {
		t.Fatalf("Exec(INSERT Attr): %v", err)
	}
	if _, err := p.Exec(nil); err != nil {
		t.Fatalf("Exec after disjoint insert: %v", err)
	}
	if p.plan.Load() != cold {
		t.Error("disjoint insert flushed the compiled plan")
	}

	if _, err := e.Exec("INSERT INTO Item VALUES (6, 'pine candle', 2, 2, 1, 3.5, 'woody')"); err != nil {
		t.Fatalf("Exec(INSERT Item): %v", err)
	}
	if _, err := p.Exec(nil); err != nil {
		t.Fatalf("Exec after intersecting insert: %v", err)
	}
	if p.plan.Load() == cold {
		t.Error("intersecting insert did not trigger a replan")
	}
}

// TestTermDisjointInsertKeepsCandidateSet pins the conjunction rule: an
// insert into the candidate set's own table whose tokens miss every term of
// the predicate leaves the cached set fresh — the new row cannot join it.
func TestTermDisjointInsertKeepsCandidateSet(t *testing.T) {
	e := productEngine(t)
	p := mustPrepare(t, e, "SELECT 1 FROM Item WHERE name CONTAINS 'lavender' LIMIT 1")
	cands := NewCandidateCache()
	if _, err := p.Exec(cands); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	_, coldMisses := cands.Stats()

	// Same table, disjoint tokens: the 'lavender' candidate set stays.
	if _, err := e.Exec("INSERT INTO Item VALUES (7, 'plain soap', 2, 1, 1, 1.5, 'unscented')"); err != nil {
		t.Fatalf("Exec(INSERT): %v", err)
	}
	if _, err := p.Exec(cands); err != nil {
		t.Fatalf("Exec after term-disjoint insert: %v", err)
	}
	if _, misses := cands.Stats(); misses != coldMisses {
		t.Errorf("term-disjoint insert recomputed the candidate set (misses %d -> %d)", coldMisses, misses)
	}

	// Intersecting token: the set must be recomputed and see the row.
	if _, err := e.Exec("INSERT INTO Item VALUES (8, 'lavender soap', 2, 1, 1, 2.5, 'mild')"); err != nil {
		t.Fatalf("Exec(INSERT): %v", err)
	}
	res, err := p.Exec(cands)
	if err != nil {
		t.Fatalf("Exec after intersecting insert: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("intersecting insert invisible to the probe: rows = %d", len(res.Rows))
	}
	if _, misses := cands.Stats(); misses == coldMisses {
		t.Error("intersecting insert did not recompute the candidate set")
	}
}

// TestEpochInvalidatesEverything: an in-place update is non-monotone, so
// InvalidateIndex must stale even footprint-disjoint artifacts.
func TestEpochInvalidatesEverything(t *testing.T) {
	e := productEngine(t)
	vv := e.Versions()
	st := vv.Stamp([]string{vervec.TableKey("Item")})
	e.InvalidateIndex()
	if !vv.Stale(st) {
		t.Error("epoch bump did not stale an existing stamp")
	}
}
