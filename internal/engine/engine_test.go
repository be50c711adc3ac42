package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kwsdbg/internal/invidx"
	"kwsdbg/internal/sqltext"
	"kwsdbg/internal/storage"
)

// productScript is the toy database of the paper's Figure 2.
const productScript = `
CREATE TABLE PType (id INT PRIMARY KEY, ptype TEXT);
CREATE TABLE Color (id INT PRIMARY KEY, color TEXT, synonyms TEXT);
CREATE TABLE Attr (id INT PRIMARY KEY, property TEXT, value TEXT);
CREATE TABLE Item (
	id INT PRIMARY KEY, name TEXT, ptype INT, color INT, attr INT,
	cost FLOAT, description TEXT,
	FOREIGN KEY (ptype) REFERENCES PType(id),
	FOREIGN KEY (color) REFERENCES Color(id),
	FOREIGN KEY (attr) REFERENCES Attr(id));

INSERT INTO PType VALUES (1, 'oil'), (2, 'candle'), (3, 'incense');
INSERT INTO Color VALUES
	(1, 'red', 'crimson, orange'),
	(2, 'yellow', 'golden, lemon'),
	(3, 'pink', 'peach, salmon'),
	(4, 'saffron', 'yellow, orange');
INSERT INTO Attr VALUES
	(1, 'scent', 'saffron'),
	(2, 'scent', 'vanilla'),
	(3, 'pattern', 'floral'),
	(4, 'pattern', 'checkered');
INSERT INTO Item VALUES
	(1, 'saffron scented oil', 1, 0, 1, 4.99, '3.4 oz. burns without fumes.'),
	(2, 'vanilla scented candle', 2, 2, 2, 5.99, 'burn time 50 hrs. 6.4 oz. 2pck.'),
	(3, 'crimson scented candle', 2, 1, 3, 3.99, 'hand-made. saffron scented. 2pck.'),
	(4, 'red checkered candle', 2, 1, 4, 3.99, 'rose scented. made from essential oils.');
`

func productEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Load(productScript)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return e
}

func mustQuery(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return res
}

func TestLoadErrors(t *testing.T) {
	bad := []struct {
		name, script string
	}{
		{"parse error", "CREATE TABLE ("},
		{"select in script", "SELECT * FROM t"},
		{"bad relation", "CREATE TABLE t ()"},
		{"bad fk", "CREATE TABLE t (a INT, FOREIGN KEY (a) REFERENCES u(v))"},
		{"insert unknown table", "INSERT INTO nope VALUES (1)"},
		{"insert arity", "CREATE TABLE t (a INT, b TEXT); INSERT INTO t VALUES (1)"},
		{"insert type", "CREATE TABLE t (a INT); INSERT INTO t VALUES ('x')"},
		{"duplicate table", "CREATE TABLE t (a INT); CREATE TABLE t (a INT)"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(tc.script); err == nil {
				t.Fatal("Load succeeded, want error")
			}
		})
	}
}

func TestSingleTableSelect(t *testing.T) {
	e := productEngine(t)
	res := mustQuery(t, e, "SELECT * FROM PType")
	if len(res.Rows) != 3 || len(res.Columns) != 2 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if res.Columns[0] != "PType.id" || res.Columns[1] != "PType.ptype" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestProjectionForms(t *testing.T) {
	e := productEngine(t)
	res := mustQuery(t, e, "SELECT COUNT(*) FROM Item")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 4 {
		t.Fatalf("count = %+v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT 1 FROM Item LIMIT 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("select 1 = %+v", res.Rows)
	}
	res = mustQuery(t, e, "SELECT name, cost FROM Item WHERE id = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "vanilla scented candle" || res.Rows[0][1].F != 5.99 {
		t.Fatalf("cols = %+v", res.Rows)
	}
	if !reflect.DeepEqual(res.Columns, []string{"name", "cost"}) {
		t.Errorf("columns = %v", res.Columns)
	}
}

// TestStarRowSizedOnce checks that a SELECT * row over a join is allocated
// at its final width: len and cap both equal the joined tables' total
// column count, so projecting never regrows the slice.
func TestStarRowSizedOnce(t *testing.T) {
	e := productEngine(t)
	for _, tc := range []struct {
		sql   string
		width int // Item 7 + PType 2 + Color 3 + Attr 3
	}{
		{"SELECT * FROM PType", 2},
		{"SELECT * FROM Item t0, PType t1 WHERE t0.ptype = t1.id", 9},
		{"SELECT * FROM Item t0, PType t1, Color t2, Attr t3 WHERE t0.ptype = t1.id AND t0.color = t2.id AND t0.attr = t3.id", 15},
	} {
		res := mustQuery(t, e, tc.sql)
		if len(res.Rows) == 0 || len(res.Columns) != tc.width {
			t.Fatalf("%s: %d rows, columns %v", tc.sql, len(res.Rows), res.Columns)
		}
		for i, row := range res.Rows {
			if len(row) != tc.width || cap(row) != tc.width {
				t.Errorf("%s: row %d has len %d cap %d, want both %d", tc.sql, i, len(row), cap(row), tc.width)
			}
		}
	}
}

func TestWherePredicates(t *testing.T) {
	e := productEngine(t)
	tests := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM Item WHERE name CONTAINS 'candle'", 3},
		{"SELECT * FROM Item WHERE name CONTAINS 'scented candle'", 2},
		{"SELECT * FROM Item WHERE description CONTAINS 'saffron'", 1},
		{"SELECT * FROM Item WHERE (name CONTAINS 'saffron' OR description CONTAINS 'saffron')", 2},
		{"SELECT * FROM Item WHERE name LIKE '%scented%'", 3},
		{"SELECT * FROM Item WHERE name LIKE 'red%'", 1},
		{"SELECT * FROM Item WHERE name NOT LIKE '%candle%'", 1},
		{"SELECT * FROM Item WHERE name LIKE '_ed%'", 1},
		{"SELECT * FROM Item WHERE cost < 4.0", 2},
		{"SELECT * FROM Item WHERE cost <= 3.99", 2},
		{"SELECT * FROM Item WHERE cost > 4 AND cost < 6", 2},
		{"SELECT * FROM Item WHERE id >= 3", 2},
		{"SELECT * FROM Item WHERE id <> 1", 3},
		{"SELECT * FROM Item WHERE ptype = 2 AND color = 1", 2},
		{"SELECT * FROM Item WHERE (id = 1 OR id = 4)", 2},
		{"SELECT * FROM Item WHERE name = 'red checkered candle'", 1},
		{"SELECT * FROM Item WHERE name CONTAINS 'nothing here'", 0},
	}
	for _, tc := range tests {
		t.Run(tc.sql, func(t *testing.T) {
			if got := len(mustQuery(t, e, tc.sql).Rows); got != tc.want {
				t.Errorf("got %d rows, want %d", got, tc.want)
			}
		})
	}
}

func TestJoins(t *testing.T) {
	e := productEngine(t)
	// q1 of Example 1: scented candles whose color is saffron — dead.
	q1 := `SELECT 1 FROM PType AS t0, Item AS t1, Color AS t2
		WHERE t1.ptype = t0.id AND t1.color = t2.id
		AND t0.ptype CONTAINS 'candle' AND t1.name CONTAINS 'scented'
		AND (t2.color CONTAINS 'saffron' OR t2.synonyms CONTAINS 'saffron') LIMIT 1`
	if got := len(mustQuery(t, e, q1).Rows); got != 0 {
		t.Errorf("q1: got %d rows, want 0 (non-answer)", got)
	}
	// Sub-query of q1: scented candles — alive.
	sub := `SELECT 1 FROM PType AS t0, Item AS t1
		WHERE t1.ptype = t0.id AND t0.ptype CONTAINS 'candle' AND t1.name CONTAINS 'scented' LIMIT 1`
	if got := len(mustQuery(t, e, sub).Rows); got != 1 {
		t.Errorf("sub-query: got %d rows, want 1", got)
	}
	// q2: scented candles with saffron scent attribute — dead.
	q2 := `SELECT 1 FROM PType AS t0, Item AS t1, Attr AS t2
		WHERE t1.ptype = t0.id AND t1.attr = t2.id
		AND t0.ptype CONTAINS 'candle' AND t1.name CONTAINS 'scented'
		AND (t2.property CONTAINS 'saffron' OR t2.value CONTAINS 'saffron') LIMIT 1`
	if got := len(mustQuery(t, e, q2).Rows); got != 0 {
		t.Errorf("q2: got %d rows, want 0 (non-answer)", got)
	}
	// Sub-query of q2: saffron-scented products — alive (the oil).
	sub2 := `SELECT t1.name FROM Item AS t1, Attr AS t2
		WHERE t1.attr = t2.id AND t1.name CONTAINS 'scented'
		AND (t2.property CONTAINS 'saffron' OR t2.value CONTAINS 'saffron')`
	res := mustQuery(t, e, sub2)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "saffron scented oil" {
		t.Errorf("sub2 = %+v", res.Rows)
	}
}

func TestJoinFullResults(t *testing.T) {
	e := productEngine(t)
	res := mustQuery(t, e, `SELECT i.name, p.ptype FROM Item i, PType p WHERE i.ptype = p.id`)
	if len(res.Rows) != 4 {
		t.Fatalf("join rows = %d, want 4", len(res.Rows))
	}
	byName := map[string]string{}
	for _, r := range res.Rows {
		byName[r[0].S] = r[1].S
	}
	if byName["saffron scented oil"] != "oil" || byName["red checkered candle"] != "candle" {
		t.Errorf("join pairs = %v", byName)
	}
}

func TestSelfJoin(t *testing.T) {
	e := productEngine(t)
	res := mustQuery(t, e, `SELECT COUNT(*) FROM Item a, Item b WHERE a.ptype = b.ptype`)
	// 1 oil x itself + 3 candles x 3 candles = 1 + 9 = 10.
	if res.Rows[0][0].I != 10 {
		t.Errorf("self-join count = %d, want 10", res.Rows[0][0].I)
	}
}

func TestCrossProduct(t *testing.T) {
	e := productEngine(t)
	res := mustQuery(t, e, `SELECT COUNT(*) FROM PType, Color`)
	if res.Rows[0][0].I != 12 {
		t.Errorf("cross product = %d, want 12", res.Rows[0][0].I)
	}
}

func TestResidualPredicate(t *testing.T) {
	e := productEngine(t)
	// Non-equi cross-alias predicate must be applied as a residual filter.
	res := mustQuery(t, e, `SELECT COUNT(*) FROM Item a, Item b WHERE a.cost < b.cost`)
	// costs: 4.99, 5.99, 3.99, 3.99 -> pairs with strictly smaller: 3.99<4.99 x2, 3.99<5.99 x2, 4.99<5.99 = 5
	if res.Rows[0][0].I != 5 {
		t.Errorf("residual count = %d, want 5", res.Rows[0][0].I)
	}
	// Cross-alias OR group.
	res = mustQuery(t, e, `SELECT COUNT(*) FROM PType p, Color c WHERE (p.ptype = 'oil' OR c.color = 'red')`)
	// p=oil contributes 4, c=red contributes 3, overlap 1 -> 6.
	if res.Rows[0][0].I != 6 {
		t.Errorf("cross-alias OR = %d, want 6", res.Rows[0][0].I)
	}
}

func TestLimit(t *testing.T) {
	e := productEngine(t)
	if got := len(mustQuery(t, e, "SELECT * FROM Item LIMIT 2").Rows); got != 2 {
		t.Errorf("limit 2 -> %d rows", got)
	}
	if got := len(mustQuery(t, e, "SELECT * FROM Item LIMIT 0").Rows); got != 0 {
		t.Errorf("limit 0 -> %d rows", got)
	}
	if got := len(mustQuery(t, e, "SELECT * FROM Item LIMIT 99").Rows); got != 4 {
		t.Errorf("limit 99 -> %d rows", got)
	}
}

func TestQueryErrors(t *testing.T) {
	e := productEngine(t)
	bad := []string{
		"INSERT INTO Item VALUES (1)",              // Query is SELECT-only
		"SELECT * FROM nope",                       // unknown table
		"SELECT * FROM Item a, PType a",            // duplicate alias
		"SELECT nope FROM Item",                    // unknown column
		"SELECT id FROM Item, PType",               // ambiguous column
		"SELECT x.id FROM Item",                    // unknown alias
		"SELECT Item.nope FROM Item",               // unknown column w/ qualifier
		"SELECT * FROM Item WHERE name = 3",        // type mismatch
		"SELECT * FROM Item WHERE id = 'x'",        // type mismatch
		"SELECT * FROM Item WHERE id CONTAINS 'x'", // CONTAINS on INT
		"SELECT * FROM Item WHERE cost LIKE 'x'",   // LIKE on FLOAT
		"SELECT * FRO Item",                        // parse error
	}
	for _, sql := range bad {
		if _, err := e.Query(sql); err == nil {
			t.Errorf("Query(%q) succeeded, want error", sql)
		}
	}
}

func TestExecInsertAndIndexRefresh(t *testing.T) {
	e := productEngine(t)
	if got := len(mustQuery(t, e, "SELECT * FROM Item WHERE name CONTAINS 'lavender'").Rows); got != 0 {
		t.Fatalf("pre-insert rows = %d", got)
	}
	n, err := e.Exec("INSERT INTO Item VALUES (5, 'lavender candle', 2, 3, 2, 7.5, 'fresh')")
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if n != 1 {
		t.Errorf("Exec rows = %d", n)
	}
	if got := len(mustQuery(t, e, "SELECT * FROM Item WHERE name CONTAINS 'lavender'").Rows); got != 1 {
		t.Errorf("post-insert rows = %d (stale index?)", got)
	}
	if _, err := e.Exec("SELECT * FROM Item"); err == nil {
		t.Error("Exec(SELECT) succeeded")
	}
	if _, err := e.Exec("CREATE TABLE t (a INT)"); err == nil {
		t.Error("Exec(CREATE) succeeded, want load-time-only error")
	}
	if _, err := e.Exec("INSERT INTO"); err == nil {
		t.Error("Exec(bad sql) succeeded")
	}
}

func TestInvalidateIndexAfterUpdate(t *testing.T) {
	e := productEngine(t)
	// The paper's motivating fix: add "saffron" as a synonym of yellow.
	tbl, _ := e.Database().Table("Color")
	if err := tbl.Update(1, storage.Row{
		storage.IntV(2), storage.TextV("yellow"), storage.TextV("golden, lemon, saffron"),
	}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// Same row count, so the engine cannot detect staleness on its own.
	e.InvalidateIndex()
	got := mustQuery(t, e, "SELECT * FROM Color WHERE synonyms CONTAINS 'saffron'")
	if len(got.Rows) != 1 {
		t.Errorf("post-update rows = %d, want 1", len(got.Rows))
	}
	// The paper's q1 now matches: saffron binds to the yellow color row too.
	got = mustQuery(t, e, "SELECT * FROM Color WHERE (color CONTAINS 'saffron' OR synonyms CONTAINS 'saffron')")
	if len(got.Rows) != 2 {
		t.Errorf("post-update OR rows = %d, want 2", len(got.Rows))
	}
}

func TestLikeMatch(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"", "", true},
		{"", "x", false},
		{"%candle%", "red candle here", true},
		{"%candle%", "red candl", false},
		{"red%", "red candle", true},
		{"red%", "a red candle", false},
		{"%red", "wired", true},
		{"_ed", "red", true},
		{"_ed", "fled", false},
		{"r_d", "rod", true},
		{"%a%b%", "xaxbx", true},
		{"%a%b%", "xbxax", false},
		{"a%%b", "ab", true},
		{"abc", "abc", true},
		{"abc", "ABC", false}, // case-sensitive
		{"%%", "anything", true},
		{"a_c%z", "abcdz", true},
	}
	for _, tc := range tests {
		if got := likeMatch(tc.pattern, tc.s); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.pattern, tc.s, got, tc.want)
		}
	}
}

// naiveEval evaluates a Select by full cartesian enumeration, independently of
// the planner, as the ground truth for the property test.
func naiveEval(t *testing.T, e *Engine, sel *sqltext.Select) [][]storage.Value {
	t.Helper()
	var tables []*storage.Table
	for _, tr := range sel.From {
		tbl, ok := e.Database().Table(tr.Table)
		if !ok {
			t.Fatalf("naive: unknown table %s", tr.Table)
		}
		tables = append(tables, tbl)
	}
	aliasOf := func(q string) int {
		for i, tr := range sel.From {
			if tr.Alias == q {
				return i
			}
		}
		t.Fatalf("naive: unknown alias %s", q)
		return -1
	}
	colOf := func(c sqltext.ColRef) (int, int) {
		if c.Qualifier != "" {
			a := aliasOf(c.Qualifier)
			return a, tables[a].Relation().ColumnIndex(c.Column)
		}
		for a, tbl := range tables {
			if ci := tbl.Relation().ColumnIndex(c.Column); ci >= 0 {
				return a, ci
			}
		}
		t.Fatalf("naive: unknown column %s", c.Column)
		return -1, -1
	}
	var evalPred func(p sqltext.Predicate, env []storage.Row) bool
	evalPred = func(p sqltext.Predicate, env []storage.Row) bool {
		switch pr := p.(type) {
		case sqltext.Comparison:
			a, c := colOf(pr.Left)
			lv := env[a][c]
			if pr.Right.IsCol {
				ra, rc := colOf(pr.Right.Col)
				return cmpValues(lv, env[ra][rc], pr.Op)
			}
			return cmpLiteral(lv, pr.Op, pr.Right.Lit)
		case sqltext.OrGroup:
			for _, term := range pr.Terms {
				if evalPred(term, env) {
					return true
				}
			}
			return false
		}
		return false
	}
	var out [][]storage.Value
	env := make([]storage.Row, len(tables))
	var rec func(i int)
	rec = func(i int) {
		if i == len(tables) {
			for _, p := range sel.Where {
				if !evalPred(p, env) {
					return
				}
			}
			switch {
			case sel.Projection.One:
				out = append(out, []storage.Value{storage.IntV(1)})
			case sel.Projection.Star:
				var row []storage.Value
				for _, r := range env {
					row = append(row, r...)
				}
				out = append(out, row)
			case sel.Projection.Count:
				out = append(out, nil) // counted below
			default:
				var row []storage.Value
				for _, c := range sel.Projection.Cols {
					a, ci := colOf(c)
					row = append(row, env[a][ci])
				}
				out = append(out, row)
			}
			return
		}
		tables[i].Scan(func(_ storage.RowID, row storage.Row) bool {
			env[i] = row
			rec(i + 1)
			return true
		})
	}
	rec(0)
	if sel.Projection.Count {
		return [][]storage.Value{{storage.IntV(int64(len(out)))}}
	}
	return out
}

func rowsKey(rows [][]storage.Value) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprintf("%d:%s", int(v.Kind), v.String())
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return keys
}

// Property: the planner+executor agree with naive cartesian evaluation on
// randomly generated join queries over the product database.
func TestExecutorMatchesNaiveProperty(t *testing.T) {
	e := productEngine(t)
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		sel := randomProductQuery(r)
		want := naiveEval(t, e, sel)
		got, err := e.Select(sel)
		if err != nil {
			t.Fatalf("iter %d: Select(%s): %v", iter, sqltext.Print(sel), err)
		}
		if !reflect.DeepEqual(rowsKey(got.Rows), rowsKey(want)) {
			t.Fatalf("iter %d: mismatch for %s\ngot:  %v\nwant: %v",
				iter, sqltext.Print(sel), rowsKey(got.Rows), rowsKey(want))
		}
	}
}

// Column names of the product database by type, for random queries.
var (
	productTables   = []string{"Item", "PType", "Color", "Attr"}
	productTextCols = map[string][]string{
		"Item":  {"name", "description"},
		"PType": {"ptype"},
		"Color": {"color", "synonyms"},
		"Attr":  {"property", "value"},
	}
	productIntCols = map[string][]string{
		"Item":  {"id", "ptype", "color", "attr"},
		"PType": {"id"},
		"Color": {"id"},
		"Attr":  {"id"},
	}
)

// randomProductQuery draws one query over the product database: one to three
// aliases, each joined to the one before it by an INT equi-join (these are
// the first len(From)-1 predicates of Where), then up to two random local
// predicates, and no LIMIT.
func randomProductQuery(r *rand.Rand) *sqltext.Select {
	tables, textCols, intCols := productTables, productTextCols, productIntCols
	words := []string{"saffron", "scented", "candle", "red", "oil", "vanilla", "checkered", "missing"}
	nt := 1 + r.Intn(3)
	sel := &sqltext.Select{Limit: -1}
	for i := 0; i < nt; i++ {
		tbl := tables[r.Intn(len(tables))]
		sel.From = append(sel.From, sqltext.TableRef{Table: tbl, Alias: fmt.Sprintf("a%d", i)})
	}
	switch r.Intn(3) {
	case 0:
		sel.Projection.Star = true
	case 1:
		sel.Projection.Count = true
	default:
		sel.Projection.One = true
	}
	// Join predicates chaining consecutive aliases when possible.
	for i := 1; i < nt; i++ {
		lt := sel.From[i-1].Table
		rt := sel.From[i].Table
		lc := intCols[lt][r.Intn(len(intCols[lt]))]
		rc := intCols[rt][r.Intn(len(intCols[rt]))]
		sel.Where = append(sel.Where, sqltext.Comparison{
			Left:  sqltext.ColRef{Qualifier: sel.From[i-1].Alias, Column: lc},
			Op:    sqltext.OpEq,
			Right: sqltext.ColOperand(sqltext.ColRef{Qualifier: sel.From[i].Alias, Column: rc}),
		})
	}
	// Random local predicates.
	for i := 0; i < r.Intn(3); i++ {
		ai := r.Intn(nt)
		tbl := sel.From[ai].Table
		alias := sel.From[ai].Alias
		w := words[r.Intn(len(words))]
		tc := textCols[tbl][r.Intn(len(textCols[tbl]))]
		var pred sqltext.Predicate
		switch r.Intn(4) {
		case 0:
			pred = sqltext.Comparison{
				Left:  sqltext.ColRef{Qualifier: alias, Column: tc},
				Op:    sqltext.OpContains,
				Right: sqltext.LitOperand(sqltext.StringLit(w)),
			}
		case 1:
			pred = sqltext.Comparison{
				Left:  sqltext.ColRef{Qualifier: alias, Column: tc},
				Op:    sqltext.OpLike,
				Right: sqltext.LitOperand(sqltext.StringLit("%" + w + "%")),
			}
		case 2:
			ic := intCols[tbl][r.Intn(len(intCols[tbl]))]
			pred = sqltext.Comparison{
				Left:  sqltext.ColRef{Qualifier: alias, Column: ic},
				Op:    []sqltext.CmpOp{sqltext.OpEq, sqltext.OpLt, sqltext.OpGe}[r.Intn(3)],
				Right: sqltext.LitOperand(sqltext.IntLit(int64(r.Intn(5)))),
			}
		default:
			// Mixed OR-groups exercise the index-union path (CONTAINS
			// and integer equality are both indexable) as well as the
			// non-indexable fallback (LIKE poisons the union).
			second := sqltext.Predicate(sqltext.Comparison{
				Left:  sqltext.ColRef{Qualifier: alias, Column: textCols[tbl][0]},
				Op:    sqltext.OpContains,
				Right: sqltext.LitOperand(sqltext.StringLit(words[r.Intn(len(words))])),
			})
			switch r.Intn(3) {
			case 0:
				ic := intCols[tbl][r.Intn(len(intCols[tbl]))]
				second = sqltext.Comparison{
					Left:  sqltext.ColRef{Qualifier: alias, Column: ic},
					Op:    sqltext.OpEq,
					Right: sqltext.LitOperand(sqltext.IntLit(int64(r.Intn(4)))),
				}
			case 1:
				second = sqltext.Comparison{
					Left:  sqltext.ColRef{Qualifier: alias, Column: textCols[tbl][0]},
					Op:    sqltext.OpLike,
					Right: sqltext.LitOperand(sqltext.StringLit("%" + words[r.Intn(len(words))] + "%")),
				}
			}
			pred = sqltext.OrGroup{Terms: []sqltext.Predicate{
				sqltext.Comparison{
					Left:  sqltext.ColRef{Qualifier: alias, Column: tc},
					Op:    sqltext.OpContains,
					Right: sqltext.LitOperand(sqltext.StringLit(w)),
				},
				second,
			}}
		}
		sel.Where = append(sel.Where, pred)
	}
	return sel
}

func TestCellContains(t *testing.T) {
	tests := []struct {
		cell, kw string
		want     bool
	}{
		{"saffron scented oil", "saffron", true},
		{"saffron scented oil", "SAFFRON", true},
		{"unscented oil", "scented", false}, // token match, not substring
		{"hand-made. 2pck!", "2pck", true},
		{"hand-made. 2pck!", "pck", false},
		{"saffron scented oil", "scented saffron", true}, // all tokens, any order
		{"saffron scented oil", "saffron vanilla", false},
		{"", "x", false},
		{"x", "", false},
		{"Café au lait", "café", true},
		{"Café au lait", "cafe", false}, // no accent folding, same as the index
		{"ÜBER graph", "über", true},
		{"a b c", "c", true},
		{"abc", "ab", false},
		{"wordy words word", "word", true},
	}
	for _, tc := range tests {
		if got := cellContains(tc.cell, tc.kw); got != tc.want {
			t.Errorf("cellContains(%q, %q) = %v, want %v", tc.cell, tc.kw, got, tc.want)
		}
	}
}

// Property: the fast single-token path agrees with the tokenizer-based
// definition on arbitrary strings.
func TestContainsTokenMatchesTokenizeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	alphabet := []rune{'a', 'b', 'ü', '1', ' ', '-', '.', 'Z'}
	randStr := func(n int) string {
		out := make([]rune, r.Intn(n))
		for i := range out {
			out[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(out)
	}
	for i := 0; i < 2000; i++ {
		cell := randStr(20)
		toks := invidx.Tokenize(randStr(6))
		if len(toks) != 1 {
			continue
		}
		token := toks[0]
		want := false
		for _, ct := range invidx.Tokenize(cell) {
			if ct == token {
				want = true
			}
		}
		if got := containsToken(cell, token); got != want {
			t.Fatalf("containsToken(%q, %q) = %v, want %v", cell, token, got, want)
		}
	}
}

// TestDumpLoadRoundTrip pins Dump's contract: reloading a dump reproduces
// the data exactly.
func TestDumpLoadRoundTrip(t *testing.T) {
	orig := productEngine(t)
	// Add a row with quoting hazards.
	if _, err := orig.Exec(`INSERT INTO Item VALUES (5, 'o''brien''s ''special'' candle', 2, 1, 4, 9.99, 'has ''quotes''')`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := orig.Dump(&sb); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	reloaded, err := Load(sb.String())
	if err != nil {
		t.Fatalf("Load(dump): %v\n%s", err, sb.String())
	}
	if got, want := reloaded.Database().TotalRows(), orig.Database().TotalRows(); got != want {
		t.Fatalf("rows = %d, want %d", got, want)
	}
	for _, rel := range orig.Database().Schema().Relations() {
		a, _ := orig.Database().Table(rel.Name)
		b, ok := reloaded.Database().Table(rel.Name)
		if !ok {
			t.Fatalf("table %s missing after reload", rel.Name)
		}
		if a.RowCount() != b.RowCount() {
			t.Fatalf("%s rows: %d vs %d", rel.Name, a.RowCount(), b.RowCount())
		}
		for i := 0; i < a.RowCount(); i++ {
			ra, rb := a.Row(storage.RowID(i)), b.Row(storage.RowID(i))
			for c := range ra {
				if !ra[c].Equal(rb[c]) {
					t.Fatalf("%s row %d col %d: %v vs %v", rel.Name, i, c, ra[c], rb[c])
				}
			}
		}
	}
	// The schema graph survives too.
	if got, want := len(reloaded.Database().Schema().Edges()), len(orig.Database().Schema().Edges()); got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	// Queries behave identically on the reload.
	q := "SELECT COUNT(*) FROM Item WHERE name CONTAINS 'candle'"
	ra := mustQuery(t, orig, q).Rows[0][0].I
	rb := mustQuery(t, reloaded, q).Rows[0][0].I
	if ra != rb {
		t.Fatalf("query differs after reload: %d vs %d", ra, rb)
	}
}

// TestDumpBatching exercises the multi-batch INSERT path.
func TestDumpBatching(t *testing.T) {
	e := benchEngineForTest(t, 450)
	var sb strings.Builder
	if err := e.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "INSERT INTO Item"); got < 3 {
		t.Errorf("expected >= 3 Item insert batches, got %d", got)
	}
	reloaded, err := Load(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Database().TotalRows() != e.Database().TotalRows() {
		t.Errorf("rows differ after batched reload")
	}
}

func benchEngineForTest(t *testing.T, n int) *Engine {
	t.Helper()
	e, err := Load(productScript)
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < n; i++ {
		stmt := fmt.Sprintf("INSERT INTO Item VALUES (%d, 'bulk item %d', %d, %d, %d, %d.5, 'filler')",
			i, i, 1+i%3, 1+i%4, 1+i%4, i%40)
		if _, err := e.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestExplain(t *testing.T) {
	e := productEngine(t)
	out, err := e.Explain(`SELECT 1 FROM PType AS t0, Item AS t1, Color AS t2
		WHERE t1.ptype = t0.id AND t1.color = t2.id
		AND t0.ptype CONTAINS 'candle' AND t1.name CONTAINS 'scented'
		AND (t2.color CONTAINS 'saffron' OR t2.synonyms CONTAINS 'saffron') LIMIT 1`)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	for _, want := range []string{
		"plan for:",
		"via index candidates",
		"joined on",
		"predicates covered",
		"joined on t1.ptype = t0.id (hash lookup on t1.ptype)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// The most selective alias (PType, 1 candidate) starts the join order.
	firstLine := strings.Split(out, "\n")[1]
	if !strings.Contains(firstLine, "1 rows") {
		t.Errorf("plan does not start with the most selective alias: %s", firstLine)
	}

	out, err = e.Explain("SELECT COUNT(*) FROM Item a, Item b WHERE a.cost < b.cost")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cross product") || !strings.Contains(out, "residual predicates: 1") {
		t.Errorf("cross/residual plan malformed:\n%s", out)
	}
	if !strings.Contains(out, "via scan") {
		t.Errorf("unfiltered alias not scanned:\n%s", out)
	}

	// A step prints the join its hash lookup enforces first, then the joins
	// it checks per row (here a TEXT join, which no lookup can serve).
	out, err = e.Explain(`SELECT 1 FROM Attr a, Item i, Color c
		WHERE i.attr = a.id AND i.color = c.id AND a.value = c.color
		AND a.value CONTAINS 'saffron'`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{
		"1. Attr AS a via index candidates (1 rows, 1/1 local predicates covered)",
		"2. Item AS i via scan (4 rows) joined on i.attr = a.id (hash lookup on i.attr)",
		"3. Color AS c via scan (4 rows) joined on i.color = c.id (hash lookup on c.id) AND a.value = c.color",
	} {
		if got := strings.Split(out, "\n")[i+1]; got != want {
			t.Errorf("step %d = %q, want %q\n%s", i+1, got, want, out)
		}
	}

	if _, err := e.Explain("INSERT INTO Item VALUES (9, 'x', 1, 1, 1, 1.0, 'y')"); err == nil {
		t.Error("Explain accepted INSERT")
	}
	if _, err := e.Explain("SELECT * FROM nope"); err == nil {
		t.Error("Explain accepted unknown table")
	}
	if _, err := e.Explain("not sql"); err == nil {
		t.Error("Explain accepted garbage")
	}
}

// TestErrLiteralTypeClassifiable locks in the errors.Is contract: a literal /
// column type mismatch — whether it surfaces while resolving a predicate or
// while coercing an INSERT row — must stay classifiable as ErrLiteralType
// through every wrapping layer. A regression here (flattening with %v) would
// make the debugger treat malformed probes as transient failures.
func TestErrLiteralTypeClassifiable(t *testing.T) {
	e := productEngine(t)

	cases := []struct {
		name string
		run  func() error
	}{
		{"predicate string literal on INT column", func() error {
			_, err := e.Query(`SELECT * FROM Item i WHERE i.id = 'three'`)
			return err
		}},
		{"predicate int literal on TEXT column", func() error {
			_, err := e.Query(`SELECT * FROM Item i WHERE i.name = 7`)
			return err
		}},
		{"LIKE on non-TEXT column", func() error {
			_, err := e.Query(`SELECT * FROM Item i WHERE i.cost LIKE 'cheap'`)
			return err
		}},
		{"INSERT string into INT column", func() error {
			_, err := e.Exec(`INSERT INTO PType VALUES ('four', 'wax')`)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if !errors.Is(err, ErrLiteralType) {
			t.Errorf("%s: errors.Is(err, ErrLiteralType) = false for %v", tc.name, err)
		}
	}

	// Well-typed statements must not trip the sentinel path.
	if _, err := e.Query(`SELECT * FROM Item i WHERE i.id = 3`); err != nil {
		t.Fatalf("well-typed query failed: %v", err)
	}
}
