package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/sqltext"
	"kwsdbg/internal/storage"
)

// refExec is the executor as it was before plans compiled into steps, kept
// as the reference for the kernel. Per call and depth it re-derives the joins
// that reach the bound aliases into a fresh slice, wraps every candidate row
// in a closure with a defer, re-evaluates the join its hash lookup enforced,
// and tests candidate membership in a map. It emits through the same
// execState as the kernel, so the two differ only in enumeration.
type refExec struct {
	st     *execState
	plans  []aliasPlan
	order  []int
	member []map[storage.RowID]bool
}

func (r *refExec) enumerate(depth int, env []storage.Row) bool {
	st := r.st
	bq, plans, order := st.bq, r.plans, r.order
	if depth == len(order) {
		for _, p := range bq.residual {
			if !p.eval(env) {
				return true
			}
		}
		return st.emit()
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
		return r.enumerate(depth+1, env)
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
			if plans[a].indexed && !r.member[a][id] {
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
		for _, id := range plans[a].set.ids {
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

// runKernel executes bq over one plan through the compiled steps.
func runKernel(bq *boundQuery, plans []aliasPlan, order []int) *execState {
	st := newExecState(context.Background(), bq, compile(bq, plans, order))
	if st.limit != 0 {
		st.enumerate(0)
	}
	return st
}

// runReference executes bq over the same plan through refExec.
func runReference(bq *boundQuery, plans []aliasPlan, order []int) *execState {
	st := newExecState(context.Background(), bq, nil)
	r := &refExec{st: st, plans: plans, order: order, member: make([]map[storage.RowID]bool, len(plans))}
	for a, p := range plans {
		if p.indexed {
			r.member[a] = make(map[storage.RowID]bool, len(p.set.ids))
			for _, id := range p.set.ids {
				r.member[a][id] = true
			}
		}
	}
	if st.limit != 0 {
		r.enumerate(0, st.env)
	}
	return st
}

// checkKernel plans sel once (through cands when non-nil) and runs the plan
// through the kernel and the reference. It reports the first difference in
// result rows, which must agree in order, or in rows scanned, and returns
// the kernel's rows.
func checkKernel(e *Engine, sel *sqltext.Select, cands *CandidateCache) ([][]storage.Value, error) {
	bq, err := e.resolve(sel)
	if err != nil {
		return nil, err
	}
	plans, order := e.planWith(bq, cands)
	kst, rst := runKernel(bq, plans, order), runReference(bq, plans, order)
	got, err := kst.result()
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	want, err := rst.result()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("%s: kernel rows %v, reference rows %v", sqltext.Print(sel), got.Rows, want.Rows)
	}
	if kst.scanned != rst.scanned {
		return nil, fmt.Errorf("%s: kernel scanned %d rows, reference %d", sqltext.Print(sel), kst.scanned, rst.scanned)
	}
	return got.Rows, nil
}

// kernelEngine is the product database plus items whose FLOAT cost is
// integral, so a cost joined to an INT key reaches the hash lookup as well
// as the non-integral early exit.
func kernelEngine(t *testing.T) *Engine {
	t.Helper()
	e := productEngine(t)
	if _, err := e.Exec(`INSERT INTO Item VALUES
		(5, 'plain oil', 1, 3, 2, 2.0, 'unscented. 3 oz.'),
		(6, 'pink scented candle', 2, 3, 1, 3, 'pink saffron wax'),
		(7, 'saffron incense', 3, 4, 1, 1.0, 'scented sticks')`); err != nil {
		t.Fatal(err)
	}
	return e
}

// extendProductQuery reshapes a randomProductQuery draw for the kernel
// tests. Each chain join may become a TEXT = TEXT equi-join (no INT lookup,
// so the scan path), a FLOAT cost joined to an INT key, a residual non-equi
// predicate, or nothing (a cross product). A further alias may join, as a
// self-join of an existing table, to two earlier aliases at once, so one
// step has a lookup join and a join it checks per row. Some queries get one
// more CONTAINS predicate (a candidate list the lookup tests membership in),
// a residual OR-group across two aliases, or an explicit projection.
func extendProductQuery(r *rand.Rand, sel *sqltext.Select) {
	col := func(alias, column string) sqltext.ColRef {
		return sqltext.ColRef{Qualifier: alias, Column: column}
	}
	pick := func(cols []string) string { return cols[r.Intn(len(cols))] }
	intJoin := func(i, j int) sqltext.Predicate {
		return sqltext.Comparison{
			Left:  col(sel.From[i].Alias, pick(productIntCols[sel.From[i].Table])),
			Op:    sqltext.OpEq,
			Right: sqltext.ColOperand(col(sel.From[j].Alias, pick(productIntCols[sel.From[j].Table]))),
		}
	}
	nt := len(sel.From)
	if nt < 3 && r.Intn(2) == 0 {
		src := sel.From[r.Intn(nt)].Table
		if r.Intn(2) == 0 {
			src = productTables[r.Intn(len(productTables))]
		}
		sel.From = append(sel.From, sqltext.TableRef{Table: src, Alias: fmt.Sprintf("a%d", nt)})
		var extra []sqltext.Predicate
		extra = append(extra, intJoin(nt, r.Intn(nt)))
		if nt > 1 && r.Intn(2) == 0 {
			extra = append(extra, intJoin(r.Intn(nt), nt))
		}
		// The new joins follow the chain joins, ahead of the local
		// predicates, so the loop below can still find the chain at
		// Where[:nt-1].
		where := append([]sqltext.Predicate{}, sel.Where[:nt-1]...)
		where = append(where, extra...)
		sel.Where = append(where, sel.Where[nt-1:]...)
	}
	for i := 1; i < nt; i++ {
		left, right := sel.From[i-1], sel.From[i]
		switch r.Intn(6) {
		case 0: // TEXT = TEXT
			sel.Where[i-1] = sqltext.Comparison{
				Left:  col(left.Alias, pick(productTextCols[left.Table])),
				Op:    sqltext.OpEq,
				Right: sqltext.ColOperand(col(right.Alias, pick(productTextCols[right.Table]))),
			}
		case 1: // FLOAT = INT
			f, k := left, right
			if f.Table != "Item" {
				f, k = right, left
			}
			if f.Table == "Item" {
				sel.Where[i-1] = sqltext.Comparison{
					Left:  col(k.Alias, pick(productIntCols[k.Table])),
					Op:    sqltext.OpEq,
					Right: sqltext.ColOperand(col(f.Alias, "cost")),
				}
			}
		case 2: // residual non-equi
			sel.Where[i-1] = sqltext.Comparison{
				Left:  col(left.Alias, pick(productIntCols[left.Table])),
				Op:    []sqltext.CmpOp{sqltext.OpLt, sqltext.OpNe, sqltext.OpGe}[r.Intn(3)],
				Right: sqltext.ColOperand(col(right.Alias, pick(productIntCols[right.Table]))),
			}
		case 3: // cross product
			sel.Where[i-1] = sqltext.Comparison{
				Left:  col(right.Alias, "id"),
				Op:    sqltext.OpGe,
				Right: sqltext.LitOperand(sqltext.IntLit(0)),
			}
		}
	}
	if r.Intn(2) == 0 {
		tr := sel.From[r.Intn(len(sel.From))]
		sel.Where = append(sel.Where, sqltext.Comparison{
			Left:  col(tr.Alias, pick(productTextCols[tr.Table])),
			Op:    sqltext.OpContains,
			Right: sqltext.LitOperand(sqltext.StringLit(pick([]string{"scented", "candle", "saffron", "pink", "scent"}))),
		})
	}
	if len(sel.From) > 1 && r.Intn(4) == 0 {
		sel.Where = append(sel.Where, sqltext.OrGroup{Terms: []sqltext.Predicate{
			sqltext.Comparison{Left: col("a0", "id"), Op: sqltext.OpEq, Right: sqltext.LitOperand(sqltext.IntLit(int64(1 + r.Intn(3))))},
			sqltext.Comparison{Left: col("a1", "id"), Op: sqltext.OpLe, Right: sqltext.LitOperand(sqltext.IntLit(int64(1 + r.Intn(3))))},
		}})
	}
	if !sel.Projection.Count && r.Intn(4) == 0 {
		sel.Projection = sqltext.Projection{}
		for _, tr := range sel.From {
			if r.Intn(2) == 0 {
				sel.Projection.Cols = append(sel.Projection.Cols, col(tr.Alias, pick(productTextCols[tr.Table])))
			}
		}
		sel.Projection.Cols = append(sel.Projection.Cols, col("a0", "id"))
	}
}

// TestKernelMatchesReferenceProperty runs random product-database queries —
// the draws of TestExecutorMatchesNaiveProperty, extended by
// extendProductQuery — through the compiled kernel and the reference, with
// and without a candidate-set cache, at LIMIT 1, 3 and none. Rows must agree
// in order, since LIMIT prefixes and /search's arrival-order tie-break depend
// on it, and so must the rows scanned. Unlimited, the rows must also match
// naive cartesian evaluation, and each LIMIT must return a prefix of them.
func TestKernelMatchesReferenceProperty(t *testing.T) {
	e := kernelEngine(t)
	cands := NewCandidateCache()
	r := rand.New(rand.NewSource(19))
	shapes := map[string]int{}
	for iter := 0; iter < 600; iter++ {
		sel := randomProductQuery(r)
		extendProductQuery(r, sel)
		countShapes(t, e, sel, shapes)
		var full [][]storage.Value
		for _, lim := range []int{-1, 1, 3} {
			sel.Limit = lim
			for _, c := range []*CandidateCache{nil, cands} {
				rows, err := checkKernel(e, sel, c)
				if err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				if lim < 0 {
					full = rows
					continue
				}
				if !sel.Projection.Count && !reflect.DeepEqual(rows, full[:min(lim, len(full))]) {
					t.Fatalf("iter %d: %s: LIMIT %d returned %v, not a prefix of %v",
						iter, sqltext.Print(sel), lim, rows, full)
				}
			}
		}
		sel.Limit = -1
		if want := naiveEval(t, e, sel); !reflect.DeepEqual(rowsKey(full), rowsKey(want)) {
			t.Fatalf("iter %d: %s: kernel %v, naive %v", iter, sqltext.Print(sel), rowsKey(full), rowsKey(want))
		}
	}
	// Every shape the reference must be compared on was drawn.
	for _, shape := range []string{"self-join", "scan join", "float lookup", "cross product", "residual", "joins per row", "lookup membership"} {
		if shapes[shape] == 0 {
			t.Errorf("no query drew a %s; shapes %v", shape, shapes)
		}
	}
}

// countShapes tallies the plan shapes of sel that the property test is meant
// to cover.
func countShapes(t *testing.T, e *Engine, sel *sqltext.Select, shapes map[string]int) {
	t.Helper()
	bq, err := e.resolve(sel)
	if err != nil {
		t.Fatalf("%s: %v", sqltext.Print(sel), err)
	}
	seen := map[string]bool{}
	for i, tr := range sel.From {
		for _, other := range sel.From[:i] {
			if other.Table == tr.Table {
				shapes["self-join"]++
			}
		}
	}
	if len(bq.residual) > 0 {
		shapes["residual"]++
	}
	plans, order := e.plan(bq)
	for depth, s := range compile(bq, plans, order) {
		switch {
		case depth > 0 && s.look == nil && len(s.joins) == 0:
			shapes["cross product"]++
		case s.look == nil && len(s.joins) > 0:
			shapes["scan join"]++
		}
		if s.look != nil {
			if v := bq.rels[s.val.a].Columns[s.val.c]; v.Type == catalog.Float && !seen["float"] {
				seen["float"] = true
				shapes["float lookup"]++
			}
			if s.indexed {
				shapes["lookup membership"]++
			}
			if len(s.joins) > 0 {
				shapes["joins per row"]++
			}
		}
	}
}

// TestRowSetHas checks the membership test against a map on lists that take
// either representation, including both sides of the bitmap boundary.
func TestRowSetHas(t *testing.T) {
	spaced := func(n int, last storage.RowID) []storage.RowID {
		var ids []storage.RowID
		for i := 0; i < n-1; i++ {
			ids = append(ids, storage.RowID(64*i))
		}
		return append(ids, last)
	}
	var dense []storage.RowID
	for id := storage.RowID(0); id < 300; id++ {
		if id%3 != 1 {
			dense = append(dense, id)
		}
	}
	cases := []struct {
		name   string
		ids    []storage.RowID
		bitmap bool
	}{
		{"empty", nil, false},
		{"single", []storage.RowID{7}, true},
		{"single far", []storage.RowID{64}, false},
		{"zero", []storage.RowID{0}, true},
		{"dense", dense, true},
		{"sparse", []storage.RowID{3, 900, 5000, 70001}, false},
		// 8 IDs spanning 8 words: the largest list a bitmap may index.
		{"boundary bitmap", spaced(8, 64*7+63), true},
		// One word more than IDs: binary search.
		{"boundary search", spaced(8, 64*8), false},
	}
	for _, tc := range cases {
		s := newRowSet(tc.ids)
		if got := s.bits != nil; got != tc.bitmap {
			t.Errorf("%s: bitmap = %v, want %v", tc.name, got, tc.bitmap)
		}
		want := map[storage.RowID]bool{}
		queries := []storage.RowID{-1, 0, 1, 63, 64, 65, 1 << 20}
		for _, id := range tc.ids {
			want[id] = true
			queries = append(queries, id-1, id, id+1, id+63, id+64, id+1000)
		}
		for _, q := range queries {
			if got := s.has(q); got != want[q] {
				t.Errorf("%s: has(%d) = %v, want %v", tc.name, q, got, want[q])
			}
		}
	}
}

// TestEnumerateAllocFree pins the kernel at zero allocations per execution:
// a compiled three-way COUNT(*) join whose middle step looks up a join value
// and tests candidate membership, and whose last step checks a second join
// per row. The membership test runs once on a bitmap and once on a list it
// binary-searches.
func TestEnumerateAllocFree(t *testing.T) {
	e := benchEngineForTest(t, 400)
	for _, tc := range []struct {
		keyword string
		bitmap  bool
	}{
		{"t1.name CONTAINS 'item'", true},
		{"(t1.name CONTAINS '301' OR t1.name CONTAINS '349')", false},
	} {
		p := mustPrepare(t, e, `SELECT COUNT(*) FROM PType t0, Item t1, Color t2
			WHERE t1.ptype = t0.id AND t1.color = t2.id AND t1.attr = t2.id
			AND t0.ptype CONTAINS 'candle' AND `+tc.keyword)
		cp, err := p.replan(nil)
		if err != nil {
			t.Fatal(err)
		}
		if s := cp.steps[1]; s.look == nil || !s.indexed || (s.set.bits != nil) != tc.bitmap {
			t.Fatalf("%s: step 1 does not look up into a candidate list of the wanted kind: %+v", tc.keyword, s)
		}
		if s := cp.steps[2]; s.look == nil || len(s.joins) != 1 {
			t.Fatalf("%s: step 2 does not check a second join: %+v", tc.keyword, s)
		}
		want := mustQuery(t, e, sqltext.Print(p.bq.sel)).Rows[0][0].I
		if want == 0 {
			t.Fatalf("%s: the join is empty; the harness would measure nothing", tc.keyword)
		}
		st := newExecState(context.Background(), p.bq, cp.steps)
		allocs := testing.AllocsPerRun(200, func() {
			st.count = 0
			st.enumerate(0)
		})
		if st.count != want {
			t.Fatalf("%s: kernel counted %d bindings, want %d", tc.keyword, st.count, want)
		}
		if allocs != 0 {
			t.Errorf("%s: enumerate allocates %v per execution, want 0", tc.keyword, allocs)
		}
	}
}
