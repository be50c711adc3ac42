// Package engine executes the SQL dialect of package sqltext against the
// in-memory store of package storage. It is the stdlib stand-in for the
// PostgreSQL instance of the paper's evaluation: the KWS-S layers above it
// only ever ask "run this select-project-join query, possibly with LIMIT 1,
// and tell me what comes back".
//
// The planner is deliberately query-shape-aware rather than general: it
// computes per-alias candidate row sets from indexable local predicates
// (CONTAINS via the inverted index, integer equality via hash indexes), picks
// a greedy join order starting from the most selective alias, and enumerates
// bindings by index-nested-loop backtracking with early exit on LIMIT — the
// access pattern that dominates a lattice traversal's existence probes.
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

	mu      sync.Mutex
	ix      *invidx.Index
	ixSizes map[string]int // per-table row counts when ix was built

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

// Index returns the inverted index over the current data, rebuilding it if
// any indexed table changed size since the last build. The paper's workflow
// mutates data between debugging sessions (adding synonyms), so staleness is
// detected rather than assumed away.
func (e *Engine) Index() *invidx.Index {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ix != nil {
		stale := e.staleTablesLocked()
		if len(stale) == 0 {
			return e.ix
		}
		// Rows reached storage without passing through Exec (tests and
		// tools insert directly); surface the mutation to version-keyed
		// caches the same way the index rebuild reacts to it, attributing
		// the appended rows' tables and terms to the version vector so
		// footprint-stamped artifacts stale no wider than necessary.
		e.attributeAppendsLocked(stale)
	}
	e.ix = invidx.Build(e.db)
	e.ixSizes = make(map[string]int)
	for _, rel := range e.db.Schema().Relations() {
		if t, ok := e.db.Table(rel.Name); ok {
			e.ixSizes[rel.Name] = t.RowCount()
		}
	}
	return e.ix
}

// staleTablesLocked lists tables whose row count moved since the index was
// built, in schema order (deterministic).
func (e *Engine) staleTablesLocked() []string {
	var stale []string
	for _, rel := range e.db.Schema().Relations() {
		t, ok := e.db.Table(rel.Name)
		if ok && e.ixSizes[rel.Name] != t.RowCount() {
			stale = append(stale, rel.Name)
		}
	}
	return stale
}

// attributeAppendsLocked bumps the version vector for rows that reached
// storage directly. Appended rows are readable (ixSizes remembers where the
// index stopped), so their text values are tokenized exactly as execInsert
// would have; a table that *shrank* has no attributable footprint and
// advances the epoch instead.
func (e *Engine) attributeAppendsLocked(stale []string) {
	var names []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, tn := range stale {
		t, ok := e.db.Table(tn)
		if !ok {
			continue
		}
		if t.RowCount() < e.ixSizes[tn] {
			e.vv.BumpEpoch()
			return
		}
		add(vervec.TableKey(tn))
		for id := e.ixSizes[tn]; id < t.RowCount(); id++ {
			for _, v := range t.Row(storage.RowID(id)) {
				if v.Kind != catalog.Text {
					continue
				}
				for _, tok := range invidx.Tokenize(v.S) {
					add(vervec.TermKey(tok))
				}
			}
		}
	}
	e.vv.Bump(names...)
}

// InvalidateIndex forces the next Index call to rebuild. Needed after
// in-place row updates, which do not change table sizes.
func (e *Engine) InvalidateIndex() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ix = nil
	// In-place updates are non-monotone (a row's text may have *lost* a
	// term), so no footprint can vouch for any cached artifact: advance the
	// epoch, which stales every stamp at once.
	e.vv.BumpEpoch()
}

// DataVersion returns a counter that advances once whenever the engine
// observes a data mutation: an INSERT, an explicit InvalidateIndex, or
// staleness detected while serving Index. It is the version vector's Seq, so
// it counts the vector's bump events; /write responses and run summaries
// report it, and no cache keys on it.
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

func (e *Engine) execInsert(ins *sqltext.Insert) error {
	tbl, ok := e.db.Table(ins.Table)
	if !ok {
		return fmt.Errorf("engine: unknown table %q", ins.Table)
	}
	// Attribute the write before any row becomes visible: a footprint
	// stamped between the bump and the insert goes stale — the safe
	// direction — while the reverse order could vouch for data the reader
	// never saw. Terms come from the statement's text literals, the same
	// tokens the inverted index will see.
	names := []string{vervec.TableKey(ins.Table)}
	seen := map[string]bool{names[0]: true}
	for _, litRow := range ins.Rows {
		for _, lit := range litRow {
			if lit.Kind != sqltext.LitString {
				continue
			}
			for _, tok := range invidx.Tokenize(lit.S) {
				if k := vervec.TermKey(tok); !seen[k] {
					seen[k] = true
					names = append(names, k)
				}
			}
		}
	}
	e.vv.Bump(names...)
	rel := tbl.Relation()
	for _, litRow := range ins.Rows {
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
		if _, err := tbl.Insert(row); err != nil {
			return err
		}
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
