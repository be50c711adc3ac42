package invidx

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/storage"
)

// extendWords mixes case, punctuation and non-ASCII letters, tokens the seed
// data of testDB already holds (in one table or both) and tokens it lacks.
var extendWords = []string{
	"Saffron", "saffron!", "SCENTED", "candle-wax", "hand-made.", "Crimson,",
	"orange", "yellow", "über", "Café", "burns", "fumes", "2pck", "red", "oil",
}

// randomText returns a few words from extendWords, sometimes with a word no
// row has held before, so a row brings tokens new to its table and tokens
// new to the database.
func randomText(r *rand.Rand, step int) string {
	n := 1 + r.Intn(3)
	words := make([]string, n)
	for i := range words {
		words[i] = extendWords[r.Intn(len(extendWords))]
	}
	if r.Intn(3) == 0 {
		words = append(words, fmt.Sprintf("Fresh%d-word", step))
	}
	return strings.Join(words, " ")
}

// randomRow returns a row of rel with random text in every text column.
func randomRow(r *rand.Rand, rel *catalog.Relation, step int) storage.Row {
	row := make(storage.Row, len(rel.Columns))
	for i, c := range rel.Columns {
		switch c.Type {
		case catalog.Text:
			row[i] = storage.TextV(randomText(r, step))
		case catalog.Float:
			row[i] = storage.FloatV(float64(r.Intn(100)) / 2)
		default:
			row[i] = storage.IntV(int64(r.Intn(1000)))
		}
	}
	return row
}

// probeKeywords returns every token the database holds, a few phrase
// keywords built from them, and keywords no row holds.
func probeKeywords(db *storage.Database) []string {
	seen := map[string]bool{}
	var toks []string
	for _, rel := range db.Schema().Relations() {
		tbl, _ := db.Table(rel.Name)
		tbl.Scan(func(_ storage.RowID, row storage.Row) bool {
			for _, v := range row {
				if v.Kind != catalog.Text {
					continue
				}
				for _, tok := range Tokenize(v.S) {
					if !seen[tok] {
						seen[tok] = true
						toks = append(toks, tok)
					}
				}
			}
			return true
		})
	}
	kws := append([]string{}, toks...)
	for i := 0; i+1 < len(toks); i += 2 {
		kws = append(kws, toks[i]+" "+toks[i+1], strings.ToUpper(toks[i])+", "+toks[i+1]+"!")
	}
	return append(kws, "nowhere", "saffron nowhere", "", "...")
}

// answers renders everything ix says about kws: Tables, and per table
// Contains, RowsAny and Rows on every text column, plus Stats. Two indexes
// that render alike answer every lookup the debugger makes alike.
func answers(ix *Index, schema *catalog.Schema, kws []string) string {
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

// sameIndex fails the test unless got holds exactly Build's postings and
// term map for db and answers every lookup as Build does.
func sameIndex(t *testing.T, step string, got *Index, db *storage.Database) {
	t.Helper()
	want := Build(db)
	if !reflect.DeepEqual(got.tables, want.tables) || !reflect.DeepEqual(got.tablesByTerm, want.tablesByTerm) {
		t.Fatalf("%s: extended index differs from Build", step)
	}
	kws := probeKeywords(db)
	if g, w := answers(got, db.Schema(), kws), answers(want, db.Schema(), kws); g != w {
		t.Fatalf("%s: extended index answers differ from Build:\n got %.600s\nwant %.600s", step, g, w)
	}
}

// TestExtendMatchesBuild appends random rows to random tables of testDB
// (Link has no text column) and extends the index over them, one run at a
// time; some runs also start up to two rows early, over rows the index
// already covers. After every step the extension equals a fresh Build, and
// the index the step started from still answers exactly as it did before.
func TestExtendMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := testDB(t)
		rels := db.Schema().Relations()
		ix := Build(db)
		for step := 0; step < 30; step++ {
			rel := rels[r.Intn(len(rels))]
			tbl, _ := db.Table(rel.Name)
			kws := probeKeywords(db)
			before := answers(ix, db.Schema(), kws)
			from := storage.RowID(tbl.RowCount())
			for n := 1 + r.Intn(3); n > 0; n-- {
				tbl.MustInsert(randomRow(r, rel, step))
			}
			from = max(0, from-storage.RowID(r.Intn(3)))
			next := ix.Extend(tbl, from, storage.RowID(tbl.RowCount()))
			if after := answers(ix, db.Schema(), kws); after != before {
				t.Fatalf("seed %d step %d: Extend changed the index it derived from", seed, step)
			}
			sameIndex(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, rel.Name), next, db)
			ix = next
		}
	}
}

// TestExtendBranches derives two indexes from one base over different rows
// (two databases that share a prefix), then keeps extending both. Only the
// first Extend of an index may append into the postings' spare capacity, so
// neither branch may see the other's rows, and the base keeps its answers.
func TestExtendBranches(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dbA, dbB := testDB(t), testDB(t)
	item, _ := dbA.Schema().Relation("Item")
	base := Build(dbA)
	baseAnswers := answers(base, dbA.Schema(), probeKeywords(dbA))
	ixA, ixB := base, base
	for step := 0; step < 12; step++ {
		// Branch B appends more rows per step than A, so the two write
		// different IDs into any posting cell they would share.
		for i, br := range []struct {
			db *storage.Database
			ix **Index
		}{{dbA, &ixA}, {dbB, &ixB}} {
			tbl, _ := br.db.Table("Item")
			from := storage.RowID(tbl.RowCount())
			for n := 1 + i + r.Intn(2); n > 0; n-- {
				tbl.MustInsert(randomRow(r, item, step))
			}
			*br.ix = (*br.ix).Extend(tbl, from, storage.RowID(tbl.RowCount()))
		}
		sameIndex(t, fmt.Sprintf("step %d branch A", step), ixA, dbA)
		sameIndex(t, fmt.Sprintf("step %d branch B", step), ixB, dbB)
	}
	// The base still answers for the rows it was built from.
	if got := answers(base, dbA.Schema(), probeKeywords(testDB(t))); got != baseAnswers {
		t.Fatal("extending two branches changed their common base")
	}
}

// TestExtendNoop: an empty range and a table without text columns return
// the receiver itself.
func TestExtendNoop(t *testing.T) {
	db := testDB(t)
	ix := Build(db)
	item, _ := db.Table("Item")
	if ix.Extend(item, 3, 3) != ix {
		t.Error("empty range derived a new index")
	}
	link, _ := db.Table("Link")
	link.MustInsert(storage.Row{storage.IntV(2), storage.IntV(3)})
	if ix.Extend(link, 1, 2) != ix {
		t.Error("a table without text columns derived a new index")
	}
}
