package invidx

import (
	"fmt"
	"testing"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/storage"
)

// benchDB builds a single-table corpus of n short documents.
func benchDB(tb testing.TB, n int) *storage.Database {
	tb.Helper()
	schema := catalog.NewSchemaBuilder().
		AddRelation(catalog.MustRelation("Doc",
			catalog.Column{Name: "id", Type: catalog.Int, PrimaryKey: true},
			catalog.Column{Name: "body", Type: catalog.Text})).
		MustBuild()
	db := storage.NewDatabase(schema)
	tbl, _ := db.Table("Doc")
	words := []string{"saffron", "scented", "candle", "oil", "vanilla", "red", "stream", "data"}
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("%s %s item %d", words[i%len(words)], words[(i/3)%len(words)], i)
		tbl.MustInsert(storage.Row{storage.IntV(int64(i)), storage.TextV(body)})
	}
	return db
}

// BenchmarkBuild measures index construction, the cost paid at load time and
// after a mutation that is not an append (appends are extended over).
func BenchmarkBuild(b *testing.B) {
	db := benchDB(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(db)
	}
}

// BenchmarkRowsAny measures the Phase 1 binding probe.
func BenchmarkRowsAny(b *testing.B) {
	ix := Build(benchDB(b, 20_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ix.RowsAny("Doc", "saffron"); len(got) == 0 {
			b.Fatal("empty postings")
		}
	}
}

// BenchmarkTokenize measures the shared tokenizer on a typical cell.
func BenchmarkTokenize(b *testing.B) {
	const s = "hand-made. saffron scented. 2pck, burns without fumes (3.4 oz)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Tokenize(s); len(got) == 0 {
			b.Fatal("no tokens")
		}
	}
}
