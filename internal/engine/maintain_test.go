package engine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/sqltext"
	"kwsdbg/internal/storage"
	"kwsdbg/internal/vervec"
)

// vocabulary lists every token the database holds, in scan order.
func vocabulary(db *storage.Database) []string {
	seen := map[string]bool{}
	var toks []string
	for _, rel := range db.Schema().Relations() {
		tbl, _ := db.Table(rel.Name)
		tbl.Scan(func(_ storage.RowID, row storage.Row) bool {
			for _, tok := range rowTokens(row) {
				if !seen[tok] {
					seen[tok] = true
					toks = append(toks, tok)
				}
			}
			return true
		})
	}
	return toks
}

// rowTokens lists the tokens of a row's text values.
func rowTokens(row storage.Row) []string {
	var toks []string
	for _, v := range row {
		if v.Kind == catalog.Text {
			toks = append(toks, invidx.Tokenize(v.S)...)
		}
	}
	return toks
}

// answers renders everything ix says about kws: Tables, and per table
// Contains, RowsAny and Rows on every text column, plus Stats.
func answers(ix *invidx.Index, schema *catalog.Schema, kws []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", ix.Stats())
	for _, kw := range kws {
		fmt.Fprintf(&b, "%q tables=%v\n", kw, ix.Tables(kw))
		for _, rel := range schema.Relations() {
			fmt.Fprintf(&b, "  %s contains=%v any=%v", rel.Name, ix.Contains(rel.Name, kw), ix.RowsAny(rel.Name, kw))
			for _, c := range rel.TextColumns() {
				fmt.Fprintf(&b, " %s=%v", c, ix.Rows(rel.Name, c, kw))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// writer generates random rows for one engine's schema. Text values mix
// case and punctuation, words the database already holds (so a token may
// be new to its table but not to the database) and words nothing holds.
type writer struct {
	r     *rand.Rand
	vocab []string
	novel int
}

var punctuation = []string{"", "", ",", "!", ".", "-", "'s", ")"}

func (w *writer) text() string {
	var words []string
	for n := 1 + w.r.Intn(3); n > 0; n-- {
		word := []rune(w.vocab[w.r.Intn(len(w.vocab))])
		switch w.r.Intn(3) {
		case 0:
			word = []rune(strings.ToUpper(string(word)))
		case 1:
			word[0] = unicode.ToUpper(word[0])
		}
		words = append(words, string(word)+punctuation[w.r.Intn(len(punctuation))])
	}
	if w.r.Intn(3) == 0 {
		w.novel++
		words = append(words, fmt.Sprintf("Novel%d", w.novel))
	}
	return strings.Join(words, " ")
}

func (w *writer) row(rel *catalog.Relation) storage.Row {
	row := make(storage.Row, len(rel.Columns))
	for i, c := range rel.Columns {
		switch c.Type {
		case catalog.Text:
			row[i] = storage.TextV(w.text())
		case catalog.Float:
			row[i] = storage.FloatV(float64(w.r.Intn(100)) + 0.5)
		default:
			row[i] = storage.IntV(int64(1_000_000 + w.r.Intn(1_000_000)))
		}
	}
	return row
}

func (w *writer) rows(rel *catalog.Relation) []storage.Row {
	rows := make([]storage.Row, 1+w.r.Intn(3))
	for i := range rows {
		rows[i] = w.row(rel)
	}
	return rows
}

// keywords returns the tokens of rows, a sample of the vocabulary, phrase
// keywords over both, and a keyword nothing holds.
func (w *writer) keywords(rows []storage.Row) []string {
	var kws []string
	for _, row := range rows {
		kws = append(kws, rowTokens(row)...)
	}
	for i := 0; i < 30 && i < len(w.vocab); i++ {
		kws = append(kws, w.vocab[w.r.Intn(len(w.vocab))])
	}
	for i := 0; i+1 < len(kws) && i < 16; i += 2 {
		kws = append(kws, kws[i]+" "+kws[i+1])
	}
	return append(kws, "zzqx")
}

// insertSQL renders rows as one INSERT statement.
func insertSQL(table string, rows []storage.Row) string {
	ins := &sqltext.Insert{Table: table}
	for _, row := range rows {
		lits := make([]sqltext.Literal, len(row))
		for i, v := range row {
			switch v.Kind {
			case catalog.Text:
				lits[i] = sqltext.StringLit(v.S)
			case catalog.Float:
				lits[i] = sqltext.FloatLit(v.F)
			default:
				lits[i] = sqltext.IntLit(v.I)
			}
		}
		ins.Rows = append(ins.Rows, lits)
	}
	return sqltext.Print(ins)
}

// checkMaintenance applies random writes to e: single- and multi-row Exec
// INSERTs, direct storage appends, INSERTs that fail on their last row,
// InvalidateIndex, and a table that shrank. After each it checks that
// e.Index() answers exactly as invidx.Build on the same data, that the
// index taken before the step still answers as it did, and that
// DataVersion moved once per mutation (not at all for a failed INSERT).
func checkMaintenance(t *testing.T, e *engine.Engine, seed int64, steps int) {
	t.Helper()
	db := e.Database()
	schema := db.Schema()
	rels := schema.Relations()
	w := &writer{r: rand.New(rand.NewSource(seed)), vocab: vocabulary(db)}
	e.Index()
	for step := 0; step < steps; step++ {
		rel := rels[w.r.Intn(len(rels))]
		tbl, _ := db.Table(rel.Name)
		rows := w.rows(rel)
		kws := w.keywords(rows)
		old := e.Index()
		oldAnswers := answers(old, schema, kws)
		version, bumps := e.DataVersion(), uint64(1)
		var what string
		switch k := w.r.Intn(20); {
		case k < 11:
			what = fmt.Sprintf("Exec of %d rows into %s", len(rows), rel.Name)
			if _, err := e.Exec(insertSQL(rel.Name, rows)); err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
		case k < 16:
			what = fmt.Sprintf("direct append of %d rows to %s", len(rows), rel.Name)
			for _, row := range rows {
				tbl.MustInsert(row)
			}
		case k < 18:
			what = fmt.Sprintf("failing Exec into %s", rel.Name)
			bad := "('x'" + strings.Repeat(", 'x'", len(rel.Columns)-1) + ")"
			if _, err := e.Exec(insertSQL(rel.Name, rows) + ", " + bad); err == nil {
				t.Fatalf("step %d: %s succeeded", step, what)
			}
			bumps = 0
		case k < 19:
			what = "InvalidateIndex"
			e.InvalidateIndex()
		default:
			what = fmt.Sprintf("shrink of %s", rel.Name)
			e.OvercountIndexedRows(rel.Name, 1)
		}
		ix := e.Index()
		if got := e.DataVersion(); got != version+bumps {
			t.Fatalf("step %d: %s moved DataVersion %d -> %d, want +%d", step, what, version, got, bumps)
		}
		if got := answers(old, schema, kws); got != oldAnswers {
			t.Fatalf("step %d: %s changed the answers of the index taken before it", step, what)
		}
		if got, want := answers(ix, schema, kws), answers(invidx.Build(db), schema, kws); got != want {
			t.Fatalf("step %d: %s: maintained index differs from Build:\n got %.800s\nwant %.800s", step, what, got, want)
		}
	}
	kws := vocabulary(db)
	if got, want := answers(e.Index(), schema, kws), answers(invidx.Build(db), schema, kws); got != want {
		t.Fatalf("after %d steps the maintained index differs from Build on the full vocabulary", steps)
	}
}

// TestMaintainedIndexMatchesBuild runs random write sequences over the
// Figure 2 database.
func TestMaintainedIndexMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		e, err := engine.Load(engine.ProductScript)
		if err != nil {
			t.Fatal(err)
		}
		checkMaintenance(t, e, seed, 50)
	}
}

// TestMaintainedIndexMatchesBuildDBLife runs a random write sequence over
// DBLife at scale 0.02, the data of kwsbench's write workload.
func TestMaintainedIndexMatchesBuildDBLife(t *testing.T) {
	e, err := dblife.Generate(dblife.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	checkMaintenance(t, e, 1, 40)
}

// TestIndexWriteStorm has writers Exec INSERTs, and one append to storage
// directly, while readers take Index() and query it. Every row ID a reader
// gets back exists in storage and holds the keyword, and each reader's
// snapshot answers the same throughout. At quiescence Index() equals Build
// and every token in the database has been attributed to the version
// vector.
func TestIndexWriteStorm(t *testing.T) {
	e, err := engine.Load(engine.ProductScript)
	if err != nil {
		t.Fatal(err)
	}
	db := e.Database()
	schema := db.Schema()
	kws := append(vocabulary(db), "novel1", "novel2", "lavender soap")
	e.Index()

	const writers, readers, writes = 3, 4, 150
	var wg, wwg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		wwg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer wwg.Done()
			w := &writer{r: rand.New(rand.NewSource(seed)), vocab: vocabulary(db)}
			rels := schema.Relations()
			for i := 0; i < writes; i++ {
				rel := rels[w.r.Intn(len(rels))]
				rows := w.rows(rel)
				if seed == 1 {
					tbl, _ := db.Table(rel.Name)
					for _, row := range rows {
						tbl.MustInsert(row)
					}
					continue
				}
				if _, err := e.Exec(insertSQL(rel.Name, rows)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g + 1))
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ix := e.Index()
				first := answers(ix, schema, kws)
				for _, rel := range schema.Relations() {
					tbl, _ := db.Table(rel.Name)
					for _, kw := range kws {
						for _, id := range ix.RowsAny(rel.Name, kw) {
							if int(id) >= tbl.RowCount() {
								t.Errorf("RowsAny(%s, %q) returned row %d; storage holds %d", rel.Name, kw, id, tbl.RowCount())
								return
							}
							if toks := rowTokens(tbl.Row(id)); !slices.Contains(toks, invidx.Tokenize(kw)[0]) {
								t.Errorf("RowsAny(%s, %q) returned row %d, whose text is %v", rel.Name, kw, id, toks)
								return
							}
						}
					}
				}
				if again := answers(ix, schema, kws); again != first {
					t.Error("a reader's snapshot changed its answers while writers ran")
					return
				}
			}
		}()
	}
	wwg.Wait()
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	if got, want := answers(e.Index(), schema, vocabulary(db)), answers(invidx.Build(db), schema, vocabulary(db)); got != want {
		t.Fatal("at quiescence the maintained index differs from Build")
	}
	for _, tok := range vocabulary(db) {
		if e.Versions().Counter(vervec.TermKey(tok)) == 0 {
			t.Errorf("token %q is indexed but was never attributed", tok)
		}
	}
}
