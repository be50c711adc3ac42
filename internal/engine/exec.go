package engine

import (
	"context"
	"fmt"
	"sort"
	"time"
	"unicode"
	"unicode/utf8"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/sqltext"
	"kwsdbg/internal/storage"
)

// colLoc pins a column reference to (alias position, column position).
type colLoc struct{ a, c int }

// rpred is a resolved predicate. mask() reports which aliases it touches.
type rpred interface {
	mask() uint64
	eval(env []storage.Row) bool
}

// rcmp is a resolved comparison.
type rcmp struct {
	left  colLoc
	op    sqltext.CmpOp
	isCol bool
	right colLoc
	lit   sqltext.Literal
	m     uint64
}

func (p *rcmp) mask() uint64 { return p.m }

func (p *rcmp) eval(env []storage.Row) bool {
	lv := env[p.left.a][p.left.c]
	if p.isCol {
		return cmpValues(lv, env[p.right.a][p.right.c], p.op)
	}
	return cmpLiteral(lv, p.op, p.lit)
}

// ror is a resolved OR-group.
type ror struct {
	terms []rpred
	m     uint64
}

func (p *ror) mask() uint64 { return p.m }

func (p *ror) eval(env []storage.Row) bool {
	for _, t := range p.terms {
		if t.eval(env) {
			return true
		}
	}
	return false
}

// cmpValues compares two column values; ints and floats compare numerically.
func cmpValues(a, b storage.Value, op sqltext.CmpOp) bool {
	if a.Kind == catalog.Text && b.Kind == catalog.Text {
		return cmpOrdered(a.S, b.S, op)
	}
	af, aok := numeric(a)
	bf, bok := numeric(b)
	if aok && bok {
		return cmpOrdered(af, bf, op)
	}
	return false
}

func numeric(v storage.Value) (float64, bool) {
	switch v.Kind {
	case catalog.Int:
		return float64(v.I), true
	case catalog.Float:
		return v.F, true
	default:
		return 0, false
	}
}

func cmpOrdered[T string | float64](a, b T, op sqltext.CmpOp) bool {
	switch op {
	case sqltext.OpEq:
		return a == b
	case sqltext.OpNe:
		return a != b
	case sqltext.OpLt:
		return a < b
	case sqltext.OpLe:
		return a <= b
	case sqltext.OpGt:
		return a > b
	case sqltext.OpGe:
		return a >= b
	default:
		return false
	}
}

// cmpLiteral compares a column value against a literal.
func cmpLiteral(v storage.Value, op sqltext.CmpOp, lit sqltext.Literal) bool {
	switch op {
	case sqltext.OpLike:
		return v.Kind == catalog.Text && likeMatch(lit.S, v.S)
	case sqltext.OpNotLike:
		return v.Kind == catalog.Text && !likeMatch(lit.S, v.S)
	case sqltext.OpContains:
		return v.Kind == catalog.Text && cellContains(v.S, lit.S)
	}
	if v.Kind == catalog.Text {
		return lit.Kind == sqltext.LitString && cmpOrdered(v.S, lit.S, op)
	}
	vf, ok := numeric(v)
	if !ok {
		return false
	}
	switch lit.Kind {
	case sqltext.LitInt:
		return cmpOrdered(vf, float64(lit.I), op)
	case sqltext.LitFloat:
		return cmpOrdered(vf, lit.F, op)
	default:
		return false
	}
}

// cellContains reports whether every token of the keyword occurs among the
// tokens of the cell — the same semantics the inverted index implements, so
// index-accelerated and scan-evaluated CONTAINS agree.
func cellContains(cell, keyword string) bool {
	want := invidx.Tokenize(keyword)
	if len(want) == 0 {
		return false
	}
	if len(want) == 1 {
		return containsToken(cell, want[0])
	}
	have := make(map[string]bool)
	for _, tok := range invidx.Tokenize(cell) {
		have[tok] = true
	}
	for _, tok := range want {
		if !have[tok] {
			return false
		}
	}
	return true
}

// containsToken is the allocation-free single-token fast path: it walks the
// cell's letter/digit runs and compares each run against the (already
// lowercased) token.
func containsToken(cell, token string) bool {
	i, n := 0, len(cell)
	for i < n {
		r, size := decodeAlnum(cell[i:])
		if size == 0 {
			i++
			continue
		}
		// Compare this alphanumeric run against the token, rune by rune.
		j := 0
		match := true
		for size != 0 {
			if match && j < len(token) {
				tr, tsize := utf8.DecodeRuneInString(token[j:])
				if tr == unicode.ToLower(r) {
					j += tsize
				} else {
					match = false
				}
			} else {
				match = false
			}
			i += size
			if i >= n {
				break
			}
			r, size = decodeAlnum(cell[i:])
		}
		if match && j == len(token) {
			return true
		}
	}
	return false
}

// decodeAlnum decodes the next rune if it is a letter or digit, returning
// size 0 otherwise.
func decodeAlnum(s string) (rune, int) {
	r, size := utf8.DecodeRuneInString(s)
	if size == 0 || (!unicode.IsLetter(r) && !unicode.IsDigit(r)) {
		return 0, 0
	}
	return r, size
}

// boundQuery is a Select with every name resolved against the catalog.
type boundQuery struct {
	sel     *sqltext.Select
	aliases []string
	tables  []*storage.Table
	rels    []*catalog.Relation
	// joins are the equality column-column predicates across two aliases.
	joins []*rcmp
	// local[a] holds single-alias predicates for alias a.
	local [][]rpred
	// residual holds multi-alias predicates that are not equi-joins.
	residual []rpred
	// projCols is the resolved explicit projection, if any.
	projCols []colLoc
}

// execState carries one execution's enumeration state: the resolved query,
// its compiled steps, the binding under construction, the result being
// collected, and the rows-scanned counter. Every execution allocates its own
// execState, which is what makes concurrent Selects on one Engine race-free
// by construction — the parallel probe scheduler in internal/core issues many
// Selects at once and nothing mutable is shared between them.
type execState struct {
	ctx   context.Context
	bq    *boundQuery
	steps []step
	// env[a] is alias a's bound row, nil while a is unbound.
	env []storage.Row
	res *Result
	// limit caps len(res.Rows); negative means no cap. COUNT(*) consumes
	// every binding, so its limit is -1.
	limit int
	count int64
	// scanned counts candidate rows visited during enumeration, for the
	// rows-scanned metric. Per-call, so no atomics.
	scanned int
	// err records context cancellation observed mid-enumeration; the
	// deadline is checked every ctxCheckRows scanned rows, so a runaway
	// cross product is abandoned promptly when the request is cancelled.
	err error
}

// newExecState prepares one execution of bq over its compiled steps.
func newExecState(ctx context.Context, bq *boundQuery, steps []step) *execState {
	st := &execState{
		ctx:   ctx,
		bq:    bq,
		steps: steps,
		env:   make([]storage.Row, len(bq.aliases)),
		res:   &Result{Columns: projectionColumns(bq)},
		limit: bq.sel.Limit,
	}
	if bq.sel.Projection.Count {
		st.limit = -1
	}
	return st
}

// emit consumes one complete binding; it returns false once LIMIT is reached.
func (st *execState) emit() bool {
	if st.bq.sel.Projection.Count {
		st.count++
		return true
	}
	st.res.Rows = append(st.res.Rows, projectRow(st.bq, st.env))
	return st.limit < 0 || len(st.res.Rows) < st.limit
}

// result finishes the execution: the enumeration's error, or its rows (one
// count row for COUNT(*)).
func (st *execState) result() (*Result, error) {
	if st.err != nil {
		return nil, st.err
	}
	if st.bq.sel.Projection.Count {
		st.res.Rows = append(st.res.Rows, []storage.Value{storage.IntV(st.count)})
	}
	return st.res, nil
}

// ctxCheckRows is how many candidate rows are scanned between context
// checks: frequent enough that cancellation lands within microseconds,
// rare enough that the check does not show up in profiles.
const ctxCheckRows = 4096

func (e *Engine) resolve(sel *sqltext.Select) (*boundQuery, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("engine: SELECT without FROM")
	}
	if len(sel.From) > 64 {
		return nil, fmt.Errorf("engine: too many FROM entries (%d, max 64)", len(sel.From))
	}
	bq := &boundQuery{sel: sel, local: make([][]rpred, len(sel.From))}
	seen := make(map[string]bool)
	for _, tr := range sel.From {
		tbl, ok := e.db.Table(tr.Table)
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", tr.Table)
		}
		if seen[tr.Alias] {
			return nil, fmt.Errorf("engine: duplicate alias %q", tr.Alias)
		}
		seen[tr.Alias] = true
		bq.aliases = append(bq.aliases, tr.Alias)
		bq.tables = append(bq.tables, tbl)
		bq.rels = append(bq.rels, tbl.Relation())
	}
	for _, c := range sel.Projection.Cols {
		loc, err := bq.resolveCol(c)
		if err != nil {
			return nil, err
		}
		bq.projCols = append(bq.projCols, loc)
	}
	for _, pr := range sel.Where {
		rp, err := bq.resolvePred(pr)
		if err != nil {
			return nil, err
		}
		switch {
		case popcount(rp.mask()) == 1:
			a := lowestBit(rp.mask())
			bq.local[a] = append(bq.local[a], rp)
		default:
			if cmp, ok := rp.(*rcmp); ok && cmp.isCol && cmp.op == sqltext.OpEq {
				bq.joins = append(bq.joins, cmp)
				continue
			}
			bq.residual = append(bq.residual, rp)
		}
	}
	return bq, nil
}

func popcount(m uint64) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

func lowestBit(m uint64) int {
	for i := 0; i < 64; i++ {
		if m&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

func (bq *boundQuery) resolveCol(c sqltext.ColRef) (colLoc, error) {
	if c.Qualifier != "" {
		for a, alias := range bq.aliases {
			if alias != c.Qualifier {
				continue
			}
			ci := bq.rels[a].ColumnIndex(c.Column)
			if ci < 0 {
				return colLoc{}, fmt.Errorf("engine: no column %q in %s", c.Column, bq.rels[a].Name)
			}
			return colLoc{a: a, c: ci}, nil
		}
		return colLoc{}, fmt.Errorf("engine: unknown alias %q", c.Qualifier)
	}
	found := colLoc{a: -1}
	for a, rel := range bq.rels {
		if ci := rel.ColumnIndex(c.Column); ci >= 0 {
			if found.a >= 0 {
				return colLoc{}, fmt.Errorf("engine: ambiguous column %q", c.Column)
			}
			found = colLoc{a: a, c: ci}
		}
	}
	if found.a < 0 {
		return colLoc{}, fmt.Errorf("engine: unknown column %q", c.Column)
	}
	return found, nil
}

func (bq *boundQuery) resolvePred(p sqltext.Predicate) (rpred, error) {
	switch pr := p.(type) {
	case sqltext.Comparison:
		left, err := bq.resolveCol(pr.Left)
		if err != nil {
			return nil, err
		}
		out := &rcmp{left: left, op: pr.Op, m: 1 << uint(left.a)}
		if pr.Right.IsCol {
			right, err := bq.resolveCol(pr.Right.Col)
			if err != nil {
				return nil, err
			}
			out.isCol = true
			out.right = right
			out.m |= 1 << uint(right.a)
			return out, nil
		}
		out.lit = pr.Right.Lit
		lt := bq.rels[left.a].Columns[left.c].Type
		if err := checkLiteralType(lt, pr.Op, pr.Right.Lit); err != nil {
			return nil, fmt.Errorf("engine: %s.%s: %w", bq.rels[left.a].Name, bq.rels[left.a].Columns[left.c].Name, err)
		}
		return out, nil
	case sqltext.OrGroup:
		out := &ror{}
		for _, term := range pr.Terms {
			rt, err := bq.resolvePred(term)
			if err != nil {
				return nil, err
			}
			out.terms = append(out.terms, rt)
			out.m |= rt.mask()
		}
		return out, nil
	default:
		return nil, fmt.Errorf("engine: unsupported predicate %T", p)
	}
}

func checkLiteralType(col catalog.ColType, op sqltext.CmpOp, lit sqltext.Literal) error {
	switch op {
	case sqltext.OpLike, sqltext.OpNotLike, sqltext.OpContains:
		if col != catalog.Text {
			return fmt.Errorf("%s requires a TEXT column: %w", op, ErrLiteralType)
		}
		return nil
	}
	switch col {
	case catalog.Text:
		if lit.Kind != sqltext.LitString {
			return fmt.Errorf("cannot compare TEXT with non-string literal: %w", ErrLiteralType)
		}
	default:
		if lit.Kind == sqltext.LitString {
			return fmt.Errorf("cannot compare %v with string literal: %w", col, ErrLiteralType)
		}
	}
	return nil
}

// aliasPlan is the per-alias access strategy.
type aliasPlan struct {
	// indexed reports whether set is authoritative; an indexed plan with an
	// empty candidate list means no row can match (nil slices from an empty
	// intersection must not be confused with "no index available").
	indexed bool
	// set holds the explicit candidate list; meaningful when indexed.
	set rowSet
	// est is the estimated candidate count used for join ordering.
	est int
	// covered marks the local predicates (parallel to boundQuery.local[a])
	// that the candidate list captures exactly; they need no per-row
	// re-check because the inverted index and the CONTAINS evaluator share
	// one tokenizer.
	covered []bool
}

// rowSet is a sorted candidate list with a membership test. A bitmap over
// row IDs backs the test when its word count is at most the list's length,
// so it never costs more memory than the list it indexes; a sparser list is
// binary-searched instead. Immutable once built, so plans and candidate-set
// cache entries share it freely.
type rowSet struct {
	ids  []storage.RowID
	bits []uint64
}

// newRowSet indexes a sorted candidate list.
func newRowSet(ids []storage.RowID) rowSet {
	s := rowSet{ids: ids}
	if len(ids) == 0 {
		return s
	}
	if words := int(ids[len(ids)-1])/64 + 1; words <= len(ids) {
		s.bits = make([]uint64, words)
		for _, id := range ids {
			s.bits[id/64] |= 1 << (uint(id) % 64)
		}
	}
	return s
}

// has reports whether id is in the list.
//
//kws:hotpath
func (s *rowSet) has(id storage.RowID) bool {
	if s.bits != nil {
		w := uint(id) / 64
		return w < uint(len(s.bits)) && s.bits[w]&(1<<(uint(id)%64)) != 0
	}
	lo, hi := 0, len(s.ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(s.ids) && s.ids[lo] == id
}

// step is one depth of a compiled execution: how to bind one alias, given
// the aliases bound at shallower depths. compile fixes every choice the
// executor would otherwise re-derive per call and per depth.
type step struct {
	a   int
	tbl *storage.Table
	// look is the join the hash lookup enforces: rows come from
	// tbl.LookupInt(col, value at val). Nil means the step iterates the
	// candidate list, or scans the table when the alias is not indexed.
	look *rcmp
	col  int
	val  colLoc
	// joins are the other joins to bound aliases, checked per row in query
	// order. The lookup proved look, so it is not among them.
	joins []*rcmp
	// filters are the alias's local predicates the candidate list does not
	// cover, checked per row after joins.
	filters []rpred
	indexed bool
	set     rowSet
}

// compile turns a plan and its join order into per-depth steps. The join
// that a step looks up is the first join to a bound alias whose column on
// the step's side is INT.
func compile(bq *boundQuery, plans []aliasPlan, order []int) []step {
	steps := make([]step, len(order))
	var bound uint64
	for depth, a := range order {
		p := &plans[a]
		s := &steps[depth]
		*s = step{a: a, tbl: bq.tables[a], indexed: p.indexed, set: p.set}
		bit := uint64(1) << uint(a)
		for _, j := range bq.joins {
			if j.m&^bound != bit {
				continue // a is not the join's one unbound alias
			}
			probe, value := j.left, j.right
			if probe.a != a {
				probe, value = j.right, j.left
			}
			if s.look == nil && bq.rels[a].Columns[probe.c].Type == catalog.Int {
				s.look, s.col, s.val = j, probe.c, value
				continue
			}
			s.joins = append(s.joins, j)
		}
		for pi, pr := range bq.local[a] {
			if !p.indexed || !p.covered[pi] {
				s.filters = append(s.filters, pr)
			}
		}
		bound |= bit
	}
	return steps
}

// plan computes candidate sets from indexable local predicates and an
// execution order over the aliases.
func (e *Engine) plan(bq *boundQuery) ([]aliasPlan, []int) {
	return e.planWith(bq, nil)
}

// planWith is plan with an optional candidate-set cache (see CandidateCache):
// indexed row sets are looked up there before touching the inverted index, so
// probes of one debug run that bind the same keyword to the same relation
// share the lookup, intersection, and membership map.
func (e *Engine) planWith(bq *boundQuery, cands *CandidateCache) ([]aliasPlan, []int) {
	plans := make([]aliasPlan, len(bq.aliases))
	ix := e.Index()
	for a := range bq.aliases {
		plans[a] = e.planAlias(bq, ix, a, cands)
	}
	// Greedy order: start from the smallest estimate; repeatedly pick the
	// connected alias with the smallest estimate, falling back to the global
	// smallest when the join graph is disconnected (cross product).
	n := len(bq.aliases)
	order := make([]int, 0, n)
	used := make([]bool, n)
	connected := func(a int, mask uint64) bool {
		for _, j := range bq.joins {
			touches := j.mask()&(1<<uint(a)) != 0
			other := j.mask() &^ (1 << uint(a))
			if touches && other&mask != 0 {
				return true
			}
		}
		return false
	}
	var mask uint64
	for len(order) < n {
		best, bestEst, bestConn := -1, 0, false
		for a := 0; a < n; a++ {
			if used[a] {
				continue
			}
			conn := len(order) > 0 && connected(a, mask)
			better := best == -1 ||
				(conn && !bestConn) ||
				(conn == bestConn && plans[a].est < bestEst)
			if better {
				best, bestEst, bestConn = a, plans[a].est, conn
			}
		}
		order = append(order, best)
		used[best] = true
		mask |= 1 << uint(best)
	}
	return plans, order
}

// planAlias derives the candidate row set for one alias from its indexable
// local predicates, consulting the candidate-set cache when one is supplied.
// A single cached predicate reuses the cache's rowSet directly — the common
// case for existence probes, whose aliases carry at most one keyword
// predicate — and only uncached lists and intersections index a fresh one.
func (e *Engine) planAlias(bq *boundQuery, ix *invidx.Index, a int, cands *CandidateCache) aliasPlan {
	tbl := bq.tables[a]
	var ids []storage.RowID
	var shared *rowSet
	have := false
	covered := make([]bool, len(bq.local[a]))
	for pi, p := range bq.local[a] {
		if got, set, ok := e.candidateSet(bq, ix, a, p, cands); ok {
			covered[pi] = true
			if !have {
				ids, shared, have = got, set, true
			} else {
				ids = invidx.IntersectRowIDs(ids, got)
				shared = nil
			}
		}
	}
	if !have {
		return aliasPlan{est: tbl.RowCount()}
	}
	p := aliasPlan{indexed: true, est: len(ids), covered: covered}
	if shared != nil {
		p.set = *shared
	} else {
		p.set = newRowSet(ids)
	}
	return p
}

// indexable evaluates a local predicate via an index when possible,
// returning the sorted candidate rows. OR-groups are indexable when every
// term is; their candidates union.
func (e *Engine) indexable(bq *boundQuery, ix *invidx.Index, a int, p rpred) ([]storage.RowID, bool) {
	switch pr := p.(type) {
	case *rcmp:
		if pr.isCol {
			return nil, false
		}
		rel := bq.rels[a]
		col := rel.Columns[pr.left.c]
		switch {
		case pr.op == sqltext.OpContains:
			return ix.Rows(rel.Name, col.Name, pr.lit.S), true
		case pr.op == sqltext.OpEq && col.Type == catalog.Int && pr.lit.Kind == sqltext.LitInt:
			ids := bq.tables[a].LookupInt(pr.left.c, pr.lit.I)
			out := make([]storage.RowID, len(ids))
			copy(out, ids)
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out, true
		}
		return nil, false
	case *ror:
		var union []storage.RowID
		for _, term := range pr.terms {
			got, ok := e.indexable(bq, ix, a, term)
			if !ok {
				return nil, false
			}
			union = invidx.UnionRowIDs(union, got)
		}
		return union, true
	default:
		return nil, false
	}
}

// Select executes a resolved SELECT statement.
func (e *Engine) Select(sel *sqltext.Select) (*Result, error) {
	return e.SelectContext(context.Background(), sel)
}

// SelectContext executes a resolved SELECT statement under a context. An
// execution under a context that is already done returns its error and no
// rows, however small the query; the deadline is then re-checked
// periodically while join bindings are enumerated, so a cancelled request
// abandons even a long-running cross product instead of running it to
// completion. Transient failures (see Transient) are retried
// with exponential backoff up to the engine's RetryPolicy; the backoff sleep
// itself is context-aware, so cancellation never waits out a delay.
//
// One-shot calls compile an ephemeral Prepared handle; callers re-executing
// the same Select should Prepare once and reuse the handle.
func (e *Engine) SelectContext(ctx context.Context, sel *sqltext.Select) (*Result, error) {
	p, err := e.Prepare(sel)
	if err != nil {
		return nil, err
	}
	return p.ExecContext(ctx, nil)
}

// runPlan enumerates one compiled execution and assembles the Result; it is
// the shared tail of every execution path (text or prepared, any attempt).
// start is when the attempt began, so the latency metric covers planning too.
// A context that is already done fails the execution before any row is read.
func (e *Engine) runPlan(ctx context.Context, bq *boundQuery, steps []step, start time.Time) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := newExecState(ctx, bq, steps)
	if st.limit != 0 {
		st.enumerate(0)
	}
	mSQLExec.Inc()
	mSQLSeconds.Observe(time.Since(start).Seconds())
	mRowsScanned.Add(float64(st.scanned))
	return st.result()
}

func projectionColumns(bq *boundQuery) []string {
	p := bq.sel.Projection
	switch {
	case p.Count:
		return []string{"count"}
	case p.One:
		return []string{"1"}
	case p.Star:
		var cols []string
		for a, rel := range bq.rels {
			for _, c := range rel.Columns {
				cols = append(cols, bq.aliases[a]+"."+c.Name)
			}
		}
		return cols
	default:
		cols := make([]string, len(p.Cols))
		for i, c := range p.Cols {
			if c.Qualifier != "" {
				cols[i] = c.Qualifier + "." + c.Column
			} else {
				cols[i] = c.Column
			}
		}
		return cols
	}
}

func projectRow(bq *boundQuery, env []storage.Row) []storage.Value {
	p := bq.sel.Projection
	switch {
	case p.One:
		return []storage.Value{storage.IntV(1)}
	case p.Star:
		n := 0
		for a := range bq.rels {
			n += len(env[a])
		}
		out := make([]storage.Value, 0, n)
		for a := range bq.rels {
			out = append(out, env[a]...)
		}
		return out
	default:
		out := make([]storage.Value, len(bq.projCols))
		for i, loc := range bq.projCols {
			out[i] = env[loc.a][loc.c]
		}
		return out
	}
}

// enumerate binds steps[depth:] by index-nested-loop backtracking and emits
// every complete binding the residual predicates accept. It returns false
// when emit asks to stop (LIMIT reached) or the context is cancelled
// (recorded in st.err). It allocates nothing itself and leaves env[a] nil on
// every return.
//
//kws:hotpath
func (st *execState) enumerate(depth int) bool {
	env := st.env
	if depth == len(st.steps) {
		for _, p := range st.bq.residual {
			if !p.eval(env) {
				return true
			}
		}
		return st.emit()
	}
	s := &st.steps[depth]
	// The rows to try: those whose lookup column holds the bound join
	// value, the candidate list, or every row of the table.
	var ids []storage.RowID
	n, scan := 0, false
	switch {
	case s.look != nil:
		vf, ok := numeric(env[s.val.a][s.val.c])
		if !ok || vf != float64(int64(vf)) {
			return true // join value cannot match any integer key
		}
		ids = s.tbl.LookupInt(s.col, int64(vf))
		n = len(ids)
	case s.indexed:
		ids = s.set.ids
		n = len(ids)
	default:
		n, scan = s.tbl.RowCount(), true
	}
	member := s.look != nil && s.indexed
	ok := true
rows:
	for i := 0; i < n; i++ {
		id := storage.RowID(i)
		if !scan {
			id = ids[i]
			if member && !s.set.has(id) {
				continue
			}
		}
		st.scanned++
		if st.scanned%ctxCheckRows == 0 {
			if err := st.ctx.Err(); err != nil {
				st.err = err
				ok = false
				break
			}
		}
		env[s.a] = s.tbl.Row(id)
		for _, j := range s.joins {
			if !j.eval(env) {
				continue rows
			}
		}
		for _, p := range s.filters {
			if !p.eval(env) {
				continue rows
			}
		}
		if !st.enumerate(depth + 1) {
			ok = false
			break
		}
	}
	env[s.a] = nil
	return ok
}
