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

// execState carries one Select call's enumeration state: the resolved query,
// the per-alias plans and join order, the emit callback, and the rows-scanned
// counter. Every call allocates its own execState, which is what makes
// concurrent Selects on one Engine race-free by construction — the parallel
// probe scheduler in internal/core issues many Selects at once and nothing
// mutable is shared between them.
type execState struct {
	ctx   context.Context
	bq    *boundQuery
	plans []aliasPlan
	order []int
	emit  func([]storage.Row) bool
	// scanned counts candidate rows visited during enumeration, for the
	// rows-scanned metric. Per-call, so no atomics.
	scanned int
	// err records context cancellation observed mid-enumeration; the
	// deadline is checked every ctxCheckRows scanned rows, so a runaway
	// cross product is abandoned promptly when the request is cancelled.
	err error
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
	// indexed reports whether ids is authoritative; an indexed plan with an
	// empty ids list means no row can match (nil slices from an empty
	// intersection must not be confused with "no index available").
	indexed bool
	// ids is the explicit candidate list (sorted); meaningful when indexed.
	ids []storage.RowID
	// member is the membership set for ids when non-nil.
	member map[storage.RowID]bool
	// est is the estimated candidate count used for join ordering.
	est int
	// covered marks the local predicates (parallel to boundQuery.local[a])
	// that ids captures exactly; they need no per-row re-check because the
	// inverted index and the CONTAINS evaluator share one tokenizer.
	covered []bool
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
// A single cached predicate reuses the cache's membership map directly — the
// common case for existence probes, whose aliases carry at most one keyword
// predicate — and only intersections allocate a fresh one.
func (e *Engine) planAlias(bq *boundQuery, ix *invidx.Index, a int, cands *CandidateCache) aliasPlan {
	tbl := bq.tables[a]
	var ids []storage.RowID
	var member map[storage.RowID]bool
	have := false
	covered := make([]bool, len(bq.local[a]))
	for pi, p := range bq.local[a] {
		if got, mem, ok := e.candidateSet(bq, ix, a, p, cands); ok {
			covered[pi] = true
			if !have {
				ids, member, have = got, mem, true
			} else {
				ids = invidx.IntersectRowIDs(ids, got)
				member = nil
			}
		}
	}
	if !have {
		return aliasPlan{est: tbl.RowCount()}
	}
	if member == nil {
		member = make(map[storage.RowID]bool, len(ids))
		for _, id := range ids {
			member[id] = true
		}
	}
	return aliasPlan{indexed: true, ids: ids, member: member, est: len(ids), covered: covered}
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

// SelectContext executes a resolved SELECT statement under a context: the
// deadline is re-checked periodically while join bindings are enumerated, so
// a cancelled request abandons even a long-running cross product instead of
// running it to completion. Transient failures (see Transient) are retried
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

// runPlan enumerates one planned execution and assembles the Result; it is
// the shared tail of every execution path (text or prepared, any attempt).
// start is when the attempt began, so the latency metric covers planning too.
func (e *Engine) runPlan(ctx context.Context, bq *boundQuery, plans []aliasPlan, order []int, start time.Time) (*Result, error) {
	sel := bq.sel
	res := &Result{Columns: projectionColumns(bq)}
	limit := sel.Limit
	if sel.Projection.Count {
		limit = -1 // the aggregate consumes all bindings
	}
	count := int64(0)
	st := &execState{ctx: ctx, bq: bq, plans: plans, order: order}
	st.emit = func(env []storage.Row) bool {
		if sel.Projection.Count {
			count++
			return true
		}
		res.Rows = append(res.Rows, projectRow(bq, env))
		return limit < 0 || len(res.Rows) < limit
	}

	env := make([]storage.Row, len(bq.aliases))
	if limit != 0 {
		e.enumerate(st, 0, env)
	}

	mSQLExec.Inc()
	mSQLSeconds.Observe(time.Since(start).Seconds())
	mRowsScanned.Add(float64(st.scanned))
	if st.err != nil {
		return nil, st.err
	}
	if sel.Projection.Count {
		res.Rows = append(res.Rows, []storage.Value{storage.IntV(count)})
	}
	return res, nil
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

// enumerate binds aliases in plan order by index-nested-loop backtracking.
// It returns false when the emit callback asks to stop (LIMIT reached) or
// the context is cancelled (recorded in st.err).
func (e *Engine) enumerate(st *execState, depth int, env []storage.Row) bool {
	bq, plans, order := st.bq, st.plans, st.order
	if depth == len(order) {
		for _, p := range bq.residual {
			if !p.eval(env) {
				return true
			}
		}
		return st.emit(env)
	}
	a := order[depth]
	tbl := bq.tables[a]

	var boundMask uint64
	for _, prev := range order[:depth] {
		boundMask |= 1 << uint(prev)
	}
	// Join predicates connecting a to an already-bound alias.
	var probes []*rcmp
	for _, j := range bq.joins {
		if j.mask()&(1<<uint(a)) != 0 && j.mask()&boundMask != 0 && j.mask()&^(boundMask|1<<uint(a)) == 0 {
			probes = append(probes, j)
		}
	}

	try := func(id storage.RowID) bool {
		st.scanned++
		if st.scanned%ctxCheckRows == 0 {
			if err := st.ctx.Err(); err != nil {
				st.err = err
				return false
			}
		}
		row := tbl.Row(id)
		env[a] = row
		defer func() { env[a] = nil }()
		for _, j := range probes {
			if !j.eval(env) {
				return true // mismatch: keep searching
			}
		}
		for pi, p := range bq.local[a] {
			if plans[a].indexed && plans[a].covered[pi] {
				continue // exactly captured by the candidate list
			}
			if !p.eval(env) {
				return true
			}
		}
		return e.enumerate(st, depth+1, env)
	}

	// Prefer probing a hash index with a bound join value.
	for _, j := range probes {
		probeLoc, valueLoc := j.left, j.right
		if probeLoc.a != a {
			probeLoc, valueLoc = j.right, j.left
		}
		if bq.rels[a].Columns[probeLoc.c].Type != catalog.Int {
			continue
		}
		v := env[valueLoc.a][valueLoc.c]
		vf, ok := numeric(v)
		if !ok || vf != float64(int64(vf)) {
			return true // join value cannot match any integer key
		}
		for _, id := range tbl.LookupInt(probeLoc.c, int64(vf)) {
			if plans[a].indexed && !plans[a].member[id] {
				continue
			}
			if !try(id) {
				return false
			}
		}
		return true
	}

	// Otherwise scan the candidate list (or the whole table).
	if plans[a].indexed {
		for _, id := range plans[a].ids {
			if !try(id) {
				return false
			}
		}
		return true
	}
	ok := true
	tbl.Scan(func(id storage.RowID, _ storage.Row) bool {
		ok = try(id)
		return ok
	})
	return ok
}
