// Package engine executes the SQL dialect of package sqltext against the
// in-memory store of package storage. It is the stdlib stand-in for the
// PostgreSQL instance of the paper's evaluation: the KWS-S layers above it
// only ever ask "run this select-project-join query, possibly with LIMIT 1,
// and tell me what comes back".
//
// The planner is deliberately query-shape-aware rather than general: it
// computes per-alias candidate row sets from indexable local predicates
// (CONTAINS via the inverted index, integer equality via hash indexes), picks
// a greedy join order starting from the most selective alias, compiles the
// two into per-depth steps, and enumerates bindings over the steps by
// index-nested-loop backtracking with early exit on LIMIT — the access
// pattern that dominates a lattice traversal's existence probes.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/sqltext"
	"kwsdbg/internal/storage"
	"kwsdbg/internal/vervec"
)

// Engine executes SQL against one database. It is safe for concurrent
// queries; data definition happens only at load time.
type Engine struct {
	db *storage.Database

	// vv attributes every observed mutation to the tables and terms it
	// touched, so footprint-stamped artifacts (plans, candidate sets,
	// probe verdicts) survive writes disjoint from their join trees.
	// Mutations that cannot be attributed (InvalidateIndex after in-place
	// updates) advance its epoch instead, which stales every stamp.
	vv *vervec.Vector

	// ix indexes the first ixSizes[t] rows of every table t. Exec extends
	// it over the rows it inserts and Index over rows appended directly; nil
	// means the next Index call builds it.
	mu      sync.Mutex
	ix      *invidx.Index  // guarded by mu
	ixSizes map[string]int // guarded by mu

	// plans caches Prepared handles for the text path: QueryContext keys it
	// by the statement's canonical rendering (see sqltext.CanonicalKey) plus
	// the raw text as an alias, so repeated SQL skips parse and resolve
	// entirely. Handles revalidate against vv themselves, so the cache is
	// never flushed.
	plans *PreparedCache

	// faults and retry are the resilience hooks of retry.go: an optional
	// FaultInjector consulted before every Select execution, and the
	// RetryPolicy governing transient-failure retries. Both atomic so tests
	// and servers can swap them mid-flight.
	faults atomic.Value // FaultInjector
	retry  atomic.Value // RetryPolicy
}

// New wraps an already-populated database.
func New(db *storage.Database) *Engine {
	return &Engine{db: db, plans: NewPreparedCache(DefaultPlanCacheSize, "text"), vv: vervec.New()}
}

// Versions exposes the engine's per-table/per-term version vector. Cached
// artifacts stamp their footprint against it and the probe cache syncs a
// snapshot per run.
func (e *Engine) Versions() *vervec.Vector { return e.vv }

// PlanCache exposes the text-path plan cache for sizing, health stats, and
// cold-start benchmarks.
func (e *Engine) PlanCache() *PreparedCache { return e.plans }

// Load builds an engine from a SQL script of CREATE TABLE and INSERT
// statements. This is how the examples bootstrap their datasets, and it is
// the only path that performs DDL: the schema graph is immutable afterwards,
// because the lattice of package lattice is derived from it.
func Load(script string) (*Engine, error) {
	stmts, err := sqltext.ParseScript(script)
	if err != nil {
		return nil, err
	}
	b := catalog.NewSchemaBuilder()
	var inserts []*sqltext.Insert
	for _, s := range stmts {
		switch st := s.(type) {
		case *sqltext.CreateTable:
			rel, err := catalog.NewRelation(st.Name, st.Columns...)
			if err != nil {
				return nil, err
			}
			b.AddRelation(rel)
			for _, fk := range st.ForeignKeys {
				b.AddEdge(st.Name, fk.Column, fk.RefTable, fk.RefCol)
			}
		case *sqltext.Insert:
			inserts = append(inserts, st)
		default:
			return nil, fmt.Errorf("engine: load script may contain only CREATE TABLE and INSERT, got %T", s)
		}
	}
	schema, err := b.Build()
	if err != nil {
		return nil, err
	}
	e := New(storage.NewDatabase(schema))
	for _, ins := range inserts {
		if err := e.execInsert(ins); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Database returns the underlying store.
func (e *Engine) Database() *storage.Database { return e.db }

// Index returns the inverted index over the current data. Exec keeps it
// current for the rows it inserts. Rows appended to storage directly (tests,
// tools and the dataset generators insert that way) are attributed to the
// version vector and then indexed here, on the next call. A full build runs
// only for the first call, after InvalidateIndex, or when a table shrank.
func (e *Engine) Index() *invidx.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncIndexLocked()
	return e.ix
}

// syncIndexLocked brings the index up to the row counts in storage. Rows
// that reached storage without passing through Exec are attributed to the
// version vector before the index extends over them, so footprint-stamped
// artifacts stale no wider than necessary and no row is indexed before its
// bump. A table that shrank has no attributable footprint: it advances the
// epoch and rebuilds.
func (e *Engine) syncIndexLocked() {
	if e.ix == nil {
		e.buildIndexLocked()
		return
	}
	type appended struct {
		tbl      *storage.Table
		from, to int
	}
	var grown []appended
	for _, rel := range e.db.Schema().Relations() {
		t, ok := e.db.Table(rel.Name)
		if !ok {
			continue
		}
		from, to := e.ixSizes[rel.Name], t.RowCount()
		switch {
		case to < from:
			e.vv.BumpEpoch()
			e.buildIndexLocked()
			return
		case to > from:
			grown = append(grown, appended{t, from, to})
		}
	}
	if len(grown) == 0 {
		return
	}
	var fp footprint
	for _, g := range grown {
		for id := g.from; id < g.to; id++ {
			fp.add(g.tbl.Relation().Name, g.tbl.Row(storage.RowID(id)))
		}
	}
	e.vv.Bump(fp.names...)
	for _, g := range grown {
		e.extendIndexLocked(g.tbl, g.from, g.to)
	}
}

// buildIndexLocked indexes the whole database. The row counts are read
// before the scan, so a row appended concurrently is at worst indexed
// twice, which Extend ignores, and never skipped.
func (e *Engine) buildIndexLocked() {
	sizes := make(map[string]int)
	for _, rel := range e.db.Schema().Relations() {
		if t, ok := e.db.Table(rel.Name); ok {
			sizes[rel.Name] = t.RowCount()
		}
	}
	e.ix = invidx.Build(e.db)
	e.ixSizes = sizes
}

// extendIndexLocked indexes rows [from, to) of t, which follow every row of
// t the index covers.
func (e *Engine) extendIndexLocked(t *storage.Table, from, to int) {
	e.ix = e.ix.Extend(t, storage.RowID(from), storage.RowID(to))
	e.ixSizes[t.Relation().Name] = to
}

// footprint collects the version-vector names a write touches: its table's
// counter and one counter per distinct token of its text values, the same
// tokens the inverted index sees.
type footprint struct {
	names []string
	seen  map[string]bool
}

func (f *footprint) add(table string, row storage.Row) {
	f.name(vervec.TableKey(table))
	for _, v := range row {
		if v.Kind != catalog.Text {
			continue
		}
		for _, tok := range invidx.Tokenize(v.S) {
			f.name(vervec.TermKey(tok))
		}
	}
}

func (f *footprint) name(n string) {
	if f.seen == nil {
		f.seen = make(map[string]bool)
	}
	if !f.seen[n] {
		f.seen[n] = true
		f.names = append(f.names, n)
	}
}

// InvalidateIndex makes the next Index call build the whole index anew.
// Needed after in-place row updates: they change no table size, and an
// index cannot be extended over a row that lost a term.
func (e *Engine) InvalidateIndex() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ix = nil
	// In-place updates are non-monotone (a row's text may have *lost* a
	// term), so no footprint can vouch for any cached artifact: advance the
	// epoch, which stales every stamp at once.
	e.vv.BumpEpoch()
}

// DataVersion returns a counter that advances once per data mutation the
// engine observes: once per Exec INSERT, once per InvalidateIndex or table
// found to have shrunk, and once per batch of rows appended to storage
// directly, when the next Index or Exec call finds them. It is the version vector's Seq, so it counts the
// vector's bump events; /write responses and run summaries report it, and
// no cache keys on it.
func (e *Engine) DataVersion() uint64 { return e.vv.Seq() }

// Result is the outcome of a SELECT.
type Result struct {
	Columns []string
	Rows    [][]storage.Value
}

// Query parses and executes a SELECT statement.
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryContext(context.Background(), sql)
}

// QueryContext parses and executes a SELECT statement, abandoning the
// enumeration when the context is cancelled. Statements are compiled through
// the plan cache: a repeat of the same SQL — byte-identical or merely
// spelling the same canonical query — reuses its Prepared handle and skips
// parse and resolve. Only successfully compiled SELECTs are cached; parse
// errors and non-SELECTs take the uncached path every time.
func (e *Engine) QueryContext(ctx context.Context, sql string) (*Result, error) {
	if p := e.plans.Get(sql); p != nil {
		return p.ExecContext(ctx, nil)
	}
	stmt, err := sqltext.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqltext.Select)
	if !ok {
		return nil, fmt.Errorf("engine: Query requires SELECT, got %T", stmt)
	}
	// Re-probe under the canonical key: different spellings of one query
	// (whitespace, case) converge on a single cached handle.
	canon := sqltext.CanonicalKey(sel)
	p := e.plans.Get(canon)
	if p == nil {
		p, err = e.Prepare(sel)
		if err != nil {
			return nil, err
		}
		e.plans.Put(canon, p)
	}
	if canon != sql {
		e.plans.Put(sql, p)
	}
	return p.ExecContext(ctx, nil)
}

// Exec parses and executes an INSERT statement, returning the number of rows
// inserted. DDL is rejected at runtime; see Load.
func (e *Engine) Exec(sql string) (int64, error) {
	stmt, err := sqltext.Parse(sql)
	if err != nil {
		return 0, err
	}
	ins, ok := stmt.(*sqltext.Insert)
	if !ok {
		return 0, fmt.Errorf("engine: Exec supports only INSERT at runtime (DDL is load-time only), got %T", stmt)
	}
	if err := e.execInsert(ins); err != nil {
		return 0, err
	}
	return int64(len(ins.Rows)), nil
}

// execInsert applies one INSERT statement. Every row is coerced before any
// is published, so a statement that fails leaves storage, the index and the
// version vector as they were. Under e.mu it then attributes the rows,
// stores them and extends the index over exactly those rows, so the next
// read finds nothing stale.
func (e *Engine) execInsert(ins *sqltext.Insert) error {
	tbl, ok := e.db.Table(ins.Table)
	if !ok {
		return fmt.Errorf("engine: unknown table %q", ins.Table)
	}
	rel := tbl.Relation()
	rows := make([]storage.Row, len(ins.Rows))
	var fp footprint
	for r, litRow := range ins.Rows {
		if len(litRow) != len(rel.Columns) {
			return fmt.Errorf("engine: INSERT INTO %s: %d values, want %d", ins.Table, len(litRow), len(rel.Columns))
		}
		row := make(storage.Row, len(litRow))
		for i, lit := range litRow {
			v, err := literalValue(lit, rel.Columns[i].Type)
			if err != nil {
				return fmt.Errorf("engine: INSERT INTO %s.%s: %w", ins.Table, rel.Columns[i].Name, err)
			}
			row[i] = v
		}
		rows[r] = row
		fp.add(ins.Table, row)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Direct appends since the last sync are attributed and indexed on
	// their own first, so these rows are the only ones past the index.
	if e.ix != nil {
		e.syncIndexLocked()
	}
	// Attribute the write before any row becomes visible: a footprint
	// stamped between the bump and the insert goes stale — the safe
	// direction — while the reverse order could vouch for data the reader
	// never saw.
	e.vv.Bump(fp.names...)
	at, contiguous := e.ixSizes[ins.Table], true
	for i, row := range rows {
		id, err := tbl.Insert(row)
		if err != nil {
			return err
		}
		contiguous = contiguous && int(id) == at+i
	}
	// A direct append interleaved with these rows leaves them to the next
	// sync, which attributes them a second time: safe, only wider.
	if e.ix != nil && contiguous {
		e.extendIndexLocked(tbl, at, at+len(rows))
	}
	return nil
}

// literalValue coerces a parsed literal to a column type. Integers widen to
// floats; everything else must match exactly.
// ErrLiteralType marks literal/column type mismatches in predicates and
// INSERT rows. Callers classify with errors.Is: the debugger distinguishes
// a malformed probe (a bug in SQL rendering) from a transient execution
// failure (retryable), so the sentinel must survive the wrapping layers.
var ErrLiteralType = errors.New("engine: literal does not fit column type")

func literalValue(lit sqltext.Literal, want catalog.ColType) (storage.Value, error) {
	switch want {
	case catalog.Int:
		if lit.Kind == sqltext.LitInt {
			return storage.IntV(lit.I), nil
		}
	case catalog.Float:
		switch lit.Kind {
		case sqltext.LitFloat:
			return storage.FloatV(lit.F), nil
		case sqltext.LitInt:
			return storage.FloatV(float64(lit.I)), nil
		}
	case catalog.Text:
		if lit.Kind == sqltext.LitString {
			return storage.TextV(lit.S), nil
		}
	}
	return storage.Value{}, fmt.Errorf("literal %v does not fit column type %v: %w", lit, want, ErrLiteralType)
}
