package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"kwsdbg/internal/sqltext"
	"kwsdbg/internal/storage"
)

// TestConcurrentSelect exercises the guarantee the parallel probe scheduler
// in internal/core depends on: many goroutines issuing Selects against one
// Engine see consistent results and race-free accounting (run under -race;
// every call owns its execState, so nothing mutable is shared).
func TestConcurrentSelect(t *testing.T) {
	e := productEngine(t)
	e.Index() // build the inverted index once, up front
	queries := []string{
		"SELECT 1 FROM Item WHERE description CONTAINS 'saffron' LIMIT 1",
		"SELECT * FROM Item t0, Color t1 WHERE t0.color = t1.id",
		"SELECT COUNT(*) FROM Item t0, PType t1 WHERE t0.ptype = t1.id AND t1.ptype CONTAINS 'candle'",
		"SELECT * FROM Attr WHERE value CONTAINS 'floral'",
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = mustQuery(t, e, q)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				qi := (g + i) % len(queries)
				res, err := e.Query(queries[qi])
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want[qi].Rows) {
					errCh <- errors.New("concurrent Select diverged from serial result")
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

// TestSelectContextCancelled verifies that a context already done when an
// execution starts fails it, however small the query: every entry point
// returns context.Canceled and no result, on a cold and on a warm plan.
func TestSelectContextCancelled(t *testing.T) {
	e := productEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const query = "SELECT * FROM Item"
	sel, err := sqltext.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	warm := mustPrepare(t, e, query)
	if _, err := warm.Exec(nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"QueryContext", func() (*Result, error) { return e.QueryContext(ctx, query) }},
		{"SelectContext", func() (*Result, error) { return e.SelectContext(ctx, sel.(*sqltext.Select)) }},
		{"Prepared.ExecContext cold", func() (*Result, error) { return mustPrepare(t, e, query).ExecContext(ctx, nil) }},
		{"Prepared.ExecContext warm", func() (*Result, error) { return warm.ExecContext(ctx, nil) }},
	} {
		res, err := tc.run()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("%s under a cancelled context = %v, %v; want nil, context.Canceled", tc.name, res, err)
		}
	}
	// The context is checked per execution, not per handle: the warm
	// handle still runs under a live one.
	if res, err := warm.ExecContext(context.Background(), nil); err != nil || len(res.Rows) != 4 {
		t.Fatalf("warm handle after a cancelled execution = %v, %v; want 4 rows", res, err)
	}
}

func TestDataVersion(t *testing.T) {
	e := productEngine(t)
	e.Index() // built before the write, so the write must maintain it
	v0 := e.DataVersion()
	if _, err := e.Exec("INSERT INTO PType VALUES (4, 'soap')"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	v1 := e.DataVersion()
	if v1 != v0+1 {
		t.Fatalf("DataVersion on INSERT: %d -> %d, want one step", v0, v1)
	}
	// The read after the write finds the index current: the INSERT's rows
	// are not attributed a second time.
	e.Index()
	if got := e.DataVersion(); got != v1 {
		t.Fatalf("DataVersion moved %d -> %d on the read after an INSERT", v1, got)
	}
	e.InvalidateIndex()
	if e.DataVersion() <= v1 {
		t.Fatal("DataVersion did not advance on InvalidateIndex")
	}
	// Rows inserted behind the engine's back are noticed at index time.
	e.Index()
	v2 := e.DataVersion()
	tbl, _ := e.Database().Table("PType")
	tbl.MustInsert(storage.Row{storage.IntV(5), storage.TextV("wax")})
	e.Index()
	if got := e.DataVersion(); got != v2+1 {
		t.Fatalf("DataVersion on a direct append found by Index: %d -> %d, want one step", v2, got)
	}
}
