// Package invidx implements the inverted text index the system uses both to
// bind keywords to relations (Phase 1 of the paper) and to accelerate the
// CONTAINS predicates in the generated SQL queries.
//
// It is the stdlib substitute for the Lucene indexes of the paper's
// evaluation (§3): for every text column of every table it records, per
// token, the sorted set of row IDs containing that token.
package invidx

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unicode"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/clock"
	"kwsdbg/internal/storage"
)

// Tokenize lowercases s and splits it into maximal runs of letters and
// digits. It is the single tokenizer used everywhere — the keyword binder and
// the CONTAINS evaluator must agree on token boundaries, otherwise Phase 1
// could bind a keyword that the SQL predicate then fails to match.
func Tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// columnPostings maps token -> sorted row IDs for one column.
type columnPostings map[string][]storage.RowID

// tablePostings holds per-column postings plus the union per token.
type tablePostings struct {
	byColumn map[string]columnPostings
	anyCol   columnPostings
}

// Index is an inverted index over every text column of a database. It is
// immutable once returned and safe for concurrent use: Extend derives a new
// Index instead of changing one.
type Index struct {
	tables map[string]*tablePostings
	// tablesByTerm[token] = sorted table names containing the token.
	tablesByTerm map[string][]string
	// extended is set by the first Extend of this Index (see Extend).
	extended atomic.Bool
}

// Build scans the whole database and indexes every text column. Appending
// rows does not require another Build: Extend covers them. Build again only
// after a mutation that is not an append, such as an in-place update.
func Build(db *storage.Database) *Index {
	buildStart := clock.Now()
	ix := &Index{
		tables:       make(map[string]*tablePostings),
		tablesByTerm: make(map[string][]string),
	}
	for _, rel := range db.Schema().Relations() {
		textCols := rel.TextColumns()
		if len(textCols) == 0 {
			continue
		}
		tbl, ok := db.Table(rel.Name)
		if !ok {
			continue
		}
		tp := &tablePostings{
			byColumn: make(map[string]columnPostings, len(textCols)),
			anyCol:   make(columnPostings),
		}
		for _, c := range textCols {
			tp.byColumn[c] = make(columnPostings)
		}
		cols := tp.columns(rel)
		var fresh []string
		tbl.Scan(func(id storage.RowID, row storage.Row) bool {
			fresh = tp.add(id, row, cols, fresh)
			return true
		})
		ix.tables[rel.Name] = tp
		for _, tok := range fresh {
			ix.tablesByTerm[tok] = append(ix.tablesByTerm[tok], rel.Name)
		}
	}
	for tok := range ix.tablesByTerm {
		sort.Strings(ix.tablesByTerm[tok])
	}
	mBuilds.Inc()
	mBuildSeconds.Set(clock.Since(buildStart).Seconds())
	mTerms.Set(float64(len(ix.tablesByTerm)))
	return ix
}

// Extend returns the index of ix's data plus rows [from, to) of tbl. Every
// row of tbl before from must already be in ix; rows in the range that ix
// covers are skipped. ix itself does not change, so a reader holding it
// keeps its snapshot. The result shares every posting the new rows do not
// touch, copies tbl's posting maps, and copies the term->tables map only
// when a token is new to tbl, so an append costs O(tbl's vocabulary), not
// O(rows).
func (ix *Index) Extend(tbl *storage.Table, from, to storage.RowID) *Index {
	rel := tbl.Relation()
	if _, ok := ix.tables[rel.Name]; !ok || from >= to {
		return ix
	}
	// The first Extend of ix may append into spare capacity past ix's
	// posting lengths, which no reader of ix looks at. A second Extend of ix
	// would write the same cells, so it clips every posting it shares
	// instead: appending to a clipped posting copies it.
	clip := ix.extended.Swap(true)
	out := &Index{
		tables:       make(map[string]*tablePostings, len(ix.tables)),
		tablesByTerm: ix.tablesByTerm,
	}
	for name, tp := range ix.tables {
		if clip || name == rel.Name {
			tp = tp.clone(clip)
		}
		out.tables[name] = tp
	}
	tp := out.tables[rel.Name]
	cols := tp.columns(rel)
	var fresh []string
	for id := from; id < to; id++ {
		fresh = tp.add(id, tbl.Row(id), cols, fresh)
	}
	if len(fresh) > 0 {
		out.tablesByTerm = maps.Clone(ix.tablesByTerm)
		for _, tok := range fresh {
			names := out.tablesByTerm[tok]
			i, _ := slices.BinarySearch(names, rel.Name)
			out.tablesByTerm[tok] = slices.Insert(slices.Clip(names), i, rel.Name)
		}
	}
	mTerms.Set(float64(len(out.tablesByTerm)))
	return out
}

// textColumn is one text column's position in a row and its postings.
type textColumn struct {
	idx  int
	post columnPostings
}

// columns lists rel's text columns with their postings in tp.
func (tp *tablePostings) columns(rel *catalog.Relation) []textColumn {
	var cols []textColumn
	for _, c := range rel.TextColumns() {
		cols = append(cols, textColumn{idx: rel.ColumnIndex(c), post: tp.byColumn[c]})
	}
	return cols
}

// add indexes one row: each token of each text column lands in the column's
// postings and in the any-column union. It appends to fresh, and returns,
// every token the table had no posting for before.
func (tp *tablePostings) add(id storage.RowID, row storage.Row, cols []textColumn, fresh []string) []string {
	for _, c := range cols {
		for _, tok := range Tokenize(row[c.idx].S) {
			c.post[tok] = appendUnique(c.post[tok], id)
			ids := tp.anyCol[tok]
			if len(ids) == 0 {
				fresh = append(fresh, tok)
			}
			tp.anyCol[tok] = appendUnique(ids, id)
		}
	}
	return fresh
}

// appendUnique appends id unless the posting already reaches it. Rows are
// indexed in increasing ID order, so postings stay sorted and deduplicated,
// and indexing a row the posting already covers changes nothing.
func appendUnique(ids []storage.RowID, id storage.RowID) []storage.RowID {
	if n := len(ids); n > 0 && ids[n-1] >= id {
		return ids
	}
	return append(ids, id)
}

// clone copies tp's maps so rows can be added without changing tp. With
// clip, every posting's capacity is cut to its length.
func (tp *tablePostings) clone(clip bool) *tablePostings {
	out := &tablePostings{
		byColumn: make(map[string]columnPostings, len(tp.byColumn)),
		anyCol:   tp.anyCol.clone(clip),
	}
	for c, cp := range tp.byColumn {
		out.byColumn[c] = cp.clone(clip)
	}
	return out
}

func (cp columnPostings) clone(clip bool) columnPostings {
	out := maps.Clone(cp)
	if clip {
		for tok, ids := range out {
			out[tok] = slices.Clip(ids)
		}
	}
	return out
}

// Tables returns the sorted names of the tables in which the keyword occurs
// (as a token, in any text column). This is the Phase 1 binding lookup.
// Multi-token keywords bind to the tables containing every token.
func (ix *Index) Tables(keyword string) []string {
	start := clock.Now()
	toks := Tokenize(keyword)
	if len(toks) == 0 {
		return nil
	}
	result := ix.tablesByTerm[toks[0]]
	for _, tok := range toks[1:] {
		result = intersectStrings(result, ix.tablesByTerm[tok])
	}
	lookupTables.record(start, len(result) > 0)
	// Copy: callers may retain the slice.
	out := make([]string, len(result))
	copy(out, result)
	return out
}

func intersectStrings(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Contains reports whether the keyword occurs in some tuple of the table.
func (ix *Index) Contains(table, keyword string) bool {
	return len(ix.RowsAny(table, keyword)) > 0
}

// RowsAny returns the sorted IDs of rows of table in which the keyword occurs
// in any text column. Multi-token keywords require every token (possibly in
// different columns, matching "and" semantics within a keyword phrase).
func (ix *Index) RowsAny(table, keyword string) []storage.RowID {
	tp, ok := ix.tables[table]
	if !ok {
		return nil
	}
	return lookup(tp.anyCol, keyword)
}

// Rows returns the sorted IDs of rows of table whose given column contains
// the keyword. This is the evaluator for a single-column CONTAINS predicate.
func (ix *Index) Rows(table, column, keyword string) []storage.RowID {
	tp, ok := ix.tables[table]
	if !ok {
		return nil
	}
	cp, ok := tp.byColumn[column]
	if !ok {
		return nil
	}
	return lookup(cp, keyword)
}

func lookup(cp columnPostings, keyword string) []storage.RowID {
	start := clock.Now()
	toks := Tokenize(keyword)
	if len(toks) == 0 {
		return nil
	}
	result := cp[toks[0]]
	for _, tok := range toks[1:] {
		result = IntersectRowIDs(result, cp[tok])
	}
	lookupRows.record(start, len(result) > 0)
	out := make([]storage.RowID, len(result))
	copy(out, result)
	return out
}

// IntersectRowIDs intersects two sorted row-ID slices.
func IntersectRowIDs(a, b []storage.RowID) []storage.RowID {
	var out []storage.RowID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// UnionRowIDs unions two sorted row-ID slices.
func UnionRowIDs(a, b []storage.RowID) []storage.RowID {
	out := make([]storage.RowID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Stats summarizes the index for logs and the experiment harness.
type Stats struct {
	Tables int // tables with at least one text column
	Terms  int // distinct tokens across all tables
}

// Stats returns index-size statistics.
func (ix *Index) Stats() Stats {
	return Stats{Tables: len(ix.tables), Terms: len(ix.tablesByTerm)}
}

// String implements fmt.Stringer for Stats.
func (s Stats) String() string {
	return fmt.Sprintf("invidx{tables=%d terms=%d}", s.Tables, s.Terms)
}
