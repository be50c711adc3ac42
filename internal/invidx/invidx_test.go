package invidx

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/storage"
)

func testDB(t *testing.T) *storage.Database {
	t.Helper()
	schema := catalog.NewSchemaBuilder().
		AddRelation(catalog.MustRelation("Item",
			catalog.Column{Name: "id", Type: catalog.Int, PrimaryKey: true},
			catalog.Column{Name: "name", Type: catalog.Text},
			catalog.Column{Name: "description", Type: catalog.Text})).
		AddRelation(catalog.MustRelation("Color",
			catalog.Column{Name: "id", Type: catalog.Int, PrimaryKey: true},
			catalog.Column{Name: "color", Type: catalog.Text},
			catalog.Column{Name: "synonyms", Type: catalog.Text})).
		AddRelation(catalog.MustRelation("Link",
			catalog.Column{Name: "a", Type: catalog.Int},
			catalog.Column{Name: "b", Type: catalog.Int})).
		MustBuild()
	db := storage.NewDatabase(schema)
	item, _ := db.Table("Item")
	item.MustInsert(storage.Row{storage.IntV(1), storage.TextV("saffron scented oil"), storage.TextV("burns without fumes")})
	item.MustInsert(storage.Row{storage.IntV(2), storage.TextV("vanilla scented candle"), storage.TextV("burn time 50 hrs")})
	item.MustInsert(storage.Row{storage.IntV(3), storage.TextV("crimson scented candle"), storage.TextV("hand-made. saffron scented.")})
	color, _ := db.Table("Color")
	color.MustInsert(storage.Row{storage.IntV(1), storage.TextV("red"), storage.TextV("crimson, orange")})
	color.MustInsert(storage.Row{storage.IntV(4), storage.TextV("saffron"), storage.TextV("yellow, orange")})
	link, _ := db.Table("Link")
	link.MustInsert(storage.Row{storage.IntV(1), storage.IntV(4)})
	return db
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Saffron Scented Candle", []string{"saffron", "scented", "candle"}},
		{"hand-made. 2pck!", []string{"hand", "made", "2pck"}},
		{"", nil},
		{"   ", nil},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
		{"a1b2", []string{"a1b2"}},
		{"über Café", []string{"über", "café"}},
	}
	for _, tc := range tests {
		if got := Tokenize(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTables(t *testing.T) {
	ix := Build(testDB(t))
	tests := []struct {
		kw   string
		want []string
	}{
		{"saffron", []string{"Color", "Item"}},
		{"SAFFRON", []string{"Color", "Item"}},
		{"candle", []string{"Item"}},
		{"yellow", []string{"Color"}},
		{"nonexistent", nil},
		{"", nil},
		{"saffron scented", []string{"Item"}}, // phrase keyword: both tokens required
	}
	for _, tc := range tests {
		got := ix.Tables(tc.kw)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tables(%q) = %v, want %v", tc.kw, got, tc.want)
		}
	}
}

func TestRowsAny(t *testing.T) {
	ix := Build(testDB(t))
	tests := []struct {
		table, kw string
		want      []storage.RowID
	}{
		{"Item", "scented", []storage.RowID{0, 1, 2}},
		{"Item", "saffron", []storage.RowID{0, 2}}, // row 2 matches in description only
		{"Item", "candle", []storage.RowID{1, 2}},
		{"Color", "orange", []storage.RowID{0, 1}},
		{"Item", "missing", nil},
		{"NoSuchTable", "saffron", nil},
		{"Link", "saffron", nil}, // no text columns
	}
	for _, tc := range tests {
		got := ix.RowsAny(tc.table, tc.kw)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("RowsAny(%s, %q) = %v, want %v", tc.table, tc.kw, got, tc.want)
		}
	}
}

func TestRowsPerColumn(t *testing.T) {
	ix := Build(testDB(t))
	if got := ix.Rows("Item", "name", "saffron"); !reflect.DeepEqual(got, []storage.RowID{0}) {
		t.Errorf("Rows(Item.name, saffron) = %v, want [0]", got)
	}
	if got := ix.Rows("Item", "description", "saffron"); !reflect.DeepEqual(got, []storage.RowID{2}) {
		t.Errorf("Rows(Item.description, saffron) = %v, want [2]", got)
	}
	if got := ix.Rows("Item", "nosuchcol", "saffron"); got != nil {
		t.Errorf("Rows on unknown column = %v, want nil", got)
	}
	if got := ix.Rows("Nope", "name", "saffron"); got != nil {
		t.Errorf("Rows on unknown table = %v, want nil", got)
	}
}

func TestContains(t *testing.T) {
	ix := Build(testDB(t))
	if !ix.Contains("Item", "candle") {
		t.Error("Contains(Item, candle) = false")
	}
	if ix.Contains("Color", "candle") {
		t.Error("Contains(Color, candle) = true")
	}
}

func TestDuplicateTokenInOneCell(t *testing.T) {
	// "saffron scented." appears twice in row 2's description via name too;
	// within a single cell a repeated token must not duplicate the posting.
	schema := catalog.NewSchemaBuilder().
		AddRelation(catalog.MustRelation("T",
			catalog.Column{Name: "id", Type: catalog.Int, PrimaryKey: true},
			catalog.Column{Name: "txt", Type: catalog.Text})).
		MustBuild()
	db := storage.NewDatabase(schema)
	tbl, _ := db.Table("T")
	tbl.MustInsert(storage.Row{storage.IntV(1), storage.TextV("foo foo foo")})
	ix := Build(db)
	if got := ix.Rows("T", "txt", "foo"); len(got) != 1 {
		t.Errorf("postings = %v, want one entry", got)
	}
}

func TestIntersectAndUnionRowIDs(t *testing.T) {
	a := []storage.RowID{1, 3, 5, 7}
	b := []storage.RowID{2, 3, 5, 8}
	if got := IntersectRowIDs(a, b); !reflect.DeepEqual(got, []storage.RowID{3, 5}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := IntersectRowIDs(a, nil); got != nil {
		t.Errorf("Intersect with nil = %v", got)
	}
	if got := UnionRowIDs(a, b); !reflect.DeepEqual(got, []storage.RowID{1, 2, 3, 5, 7, 8}) {
		t.Errorf("Union = %v", got)
	}
	if got := UnionRowIDs(nil, b); !reflect.DeepEqual(got, b) {
		t.Errorf("Union(nil, b) = %v", got)
	}
}

func TestStats(t *testing.T) {
	ix := Build(testDB(t))
	st := ix.Stats()
	if st.Tables != 2 { // Link has no text columns
		t.Errorf("Stats.Tables = %d, want 2", st.Tables)
	}
	if st.Terms == 0 {
		t.Error("Stats.Terms = 0")
	}
	if s := st.String(); !strings.Contains(s, "tables=2") {
		t.Errorf("Stats.String() = %q", s)
	}
}

// Property: for random documents, RowsAny agrees with a naive scan that
// re-tokenizes every cell, and postings are sorted and unique. It holds for
// a Build over all rows and for an index extended over them in runs (a run
// ends after every choice divisible by 3).
func TestIndexMatchesNaiveScanProperty(t *testing.T) {
	schema := catalog.NewSchemaBuilder().
		AddRelation(catalog.MustRelation("Doc",
			catalog.Column{Name: "id", Type: catalog.Int, PrimaryKey: true},
			catalog.Column{Name: "body", Type: catalog.Text})).
		MustBuild()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	f := func(choices []uint8) bool {
		db := storage.NewDatabase(schema)
		tbl, _ := db.Table("Doc")
		extended := Build(db)
		from := storage.RowID(0)
		for i, c := range choices {
			w1 := words[int(c)%len(words)]
			w2 := words[int(c/8)%len(words)]
			tbl.MustInsert(storage.Row{storage.IntV(int64(i)), storage.TextV(w1 + " " + w2)})
			if c%3 == 0 {
				extended = extended.Extend(tbl, from, storage.RowID(i+1))
				from = storage.RowID(i + 1)
			}
		}
		extended = extended.Extend(tbl, from, storage.RowID(tbl.RowCount()))
		for _, ix := range []*Index{Build(db), extended} {
			if !matchesNaiveScan(ix, tbl, words) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// matchesNaiveScan reports whether ix's RowsAny over Doc equals a scan that
// tokenizes every body, for every probe word.
func matchesNaiveScan(ix *Index, tbl *storage.Table, words []string) bool {
	for _, probe := range words {
		got := ix.RowsAny("Doc", probe)
		var want []storage.RowID
		tbl.Scan(func(id storage.RowID, row storage.Row) bool {
			for _, tok := range Tokenize(row[1].S) {
				if tok == probe {
					want = append(want, id)
					break
				}
			}
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
			if i > 0 && got[i] <= got[i-1] {
				return false // not sorted/unique
			}
		}
	}
	return true
}
