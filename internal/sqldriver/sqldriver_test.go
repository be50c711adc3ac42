package sqldriver

import (
	"context"
	"database/sql"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kwsdbg/internal/engine"
	"kwsdbg/internal/storage"
)

const script = `
CREATE TABLE PType (id INT PRIMARY KEY, ptype TEXT);
CREATE TABLE Item (id INT PRIMARY KEY, name TEXT, ptype INT, cost FLOAT,
	FOREIGN KEY (ptype) REFERENCES PType(id));
INSERT INTO PType VALUES (1, 'oil'), (2, 'candle');
INSERT INTO Item VALUES
	(1, 'saffron scented oil', 1, 4.99),
	(2, 'vanilla scented candle', 2, 5.99);
`

func openDB(t *testing.T) *sql.DB {
	t.Helper()
	e, err := engine.Load(script)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	db := OpenDB(e)
	t.Cleanup(func() { db.Close() })
	return db
}

func TestQueryRows(t *testing.T) {
	db := openDB(t)
	rows, err := db.Query("SELECT i.name, i.cost, p.id FROM Item i, PType p WHERE i.ptype = p.id AND p.ptype CONTAINS 'candle'")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatalf("Columns: %v", err)
	}
	if want := []string{"i.name", "i.cost", "p.id"}; strings.Join(cols, ",") != strings.Join(want, ",") {
		t.Errorf("columns = %v", cols)
	}
	var n int
	for rows.Next() {
		var name string
		var cost float64
		var id int64
		if err := rows.Scan(&name, &cost, &id); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if name != "vanilla scented candle" || cost != 5.99 || id != 2 {
			t.Errorf("row = %q %v %d", name, cost, id)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows.Err: %v", err)
	}
	if n != 1 {
		t.Errorf("got %d rows, want 1", n)
	}
}

func TestQueryRowExistence(t *testing.T) {
	db := openDB(t)
	var one int
	err := db.QueryRow("SELECT 1 FROM Item WHERE name CONTAINS 'saffron' LIMIT 1").Scan(&one)
	if err != nil || one != 1 {
		t.Fatalf("existence probe: %v, %d", err, one)
	}
	err = db.QueryRow("SELECT 1 FROM Item WHERE name CONTAINS 'nonexistent' LIMIT 1").Scan(&one)
	if err != sql.ErrNoRows {
		t.Fatalf("dead probe err = %v, want ErrNoRows", err)
	}
}

func TestExecInsert(t *testing.T) {
	db := openDB(t)
	res, err := db.Exec("INSERT INTO Item VALUES (3, 'pine incense', 1, 2.5)")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	n, err := res.RowsAffected()
	if err != nil || n != 1 {
		t.Fatalf("RowsAffected = %d, %v", n, err)
	}
	if _, err := res.LastInsertId(); err == nil {
		t.Error("LastInsertId succeeded, want unsupported error")
	}
	var count int64
	if err := db.QueryRow("SELECT COUNT(*) FROM Item").Scan(&count); err != nil || count != 3 {
		t.Fatalf("count = %d, %v", count, err)
	}
}

func TestPreparedStatement(t *testing.T) {
	db := openDB(t)
	st, err := db.Prepare("SELECT COUNT(*) FROM PType")
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		var n int64
		if err := st.QueryRow().Scan(&n); err != nil || n != 2 {
			t.Fatalf("iteration %d: %d, %v", i, n, err)
		}
	}
	stExec, err := db.Prepare("INSERT INTO PType VALUES (3, 'incense')")
	if err != nil {
		t.Fatalf("Prepare exec: %v", err)
	}
	defer stExec.Close()
	if _, err := stExec.Exec(); err != nil {
		t.Fatalf("prepared Exec: %v", err)
	}
}

func TestErrors(t *testing.T) {
	db := openDB(t)
	if _, err := db.Query("SELECT * FROM nope"); err == nil {
		t.Error("query unknown table succeeded")
	}
	if _, err := db.Query("SELECT * FROM Item WHERE id = ?", 1); err == nil || !strings.Contains(err.Error(), "placeholder") {
		t.Errorf("placeholder query err = %v", err)
	}
	if _, err := db.Exec("INSERT INTO Item VALUES (?, 'x', 1, 1.0)", 9); err == nil || !strings.Contains(err.Error(), "placeholder") {
		t.Errorf("placeholder exec err = %v", err)
	}
	if _, err := db.Begin(); err == nil {
		t.Error("Begin succeeded, want unsupported error")
	}
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err == nil {
		t.Error("runtime DDL succeeded")
	}
}

// TestEngineCollectedAfterClose: the DB must be the only thing holding its
// engine, so a closed, dropped DB lets the engine be garbage collected.
func TestEngineCollectedAfterClose(t *testing.T) {
	collected := make(chan struct{})
	func() {
		e, err := engine.Load(script)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		// A query caches plans that point back at the engine, and a
		// finalizer never runs on an object inside a cycle. The engine's
		// storage is reachable only through the engine and holds no pointer
		// back, so its finalizer running proves the engine was collected.
		runtime.SetFinalizer(e.Database(), func(*storage.Database) { close(collected) })
		db := OpenDB(e)
		var n int64
		if err := db.QueryRow("SELECT COUNT(*) FROM Item").Scan(&n); err != nil || n != 2 {
			t.Fatalf("count = %d, %v", n, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	// Close stops database/sql's connection goroutine asynchronously, and a
	// finalizer runs only on the collection after the object is found
	// unreachable, so give it a few cycles.
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("engine still reachable after db.Close(); something retains it")
}

func TestContextCancellation(t *testing.T) {
	db := openDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT * FROM Item"); err == nil {
		t.Error("cancelled QueryContext succeeded")
	}
	if _, err := db.ExecContext(ctx, "INSERT INTO PType VALUES (9, 'x')"); err == nil {
		t.Error("cancelled ExecContext succeeded")
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := openDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			if err := db.QueryRow("SELECT COUNT(*) FROM Item WHERE name CONTAINS 'scented'").Scan(&n); err != nil {
				errs <- err
				return
			}
			if n != 2 {
				errs <- sql.ErrNoRows
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}
