package core

import (
	"cmp"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
	"kwsdbg/internal/storage"
	"kwsdbg/internal/vervec"
)

// perNetworkFactor bounds how many tuples Search fetches per candidate
// network, as a multiple of topK.
const perNetworkFactor = 50

// SearchResult is one joined tuple tree returned to an end user: a row of
// one candidate network's join, with the usual KWS-S relevance score.
type SearchResult struct {
	// Query identifies the candidate network that produced the tuple.
	Query QueryInfo
	// Columns and Tuple are the join's output row ("alias.column" names).
	Columns []string
	Tuple   []storage.Value
	// Score is keyword-frequency over join size (see Search).
	Score float64
}

// Search is the user-facing keyword-search operation of a KWS-S system in
// the DISCOVER tradition: map the keywords to candidate networks (phases 1-2
// of the lattice pipeline), evaluate them, and return the topK joined tuples
// ranked by
//
//	score = (total keyword-token occurrences in the tuple's text columns)
//	        / (number of relations in the join),
//
// the size normalization the literature uses so that tighter connections
// rank above long join chains; ties go to the smaller join, then to the
// tree rendering, then to fetch order. Non-answers contribute nothing here —
// they are the debugger's department (Debug) — but a query whose keywords
// are absent from the data reports them via the returned missing slice, the
// same "and" semantics cut-off as Debug.
//
// With a verdict cache installed (SetProbeCache), Search shares it with
// Debug: a candidate network the cache holds as dead is skipped without
// SQL, and every network it fetches stores the verdict its rows prove.
func (sys *System) Search(keywords []string, topK int) (results []SearchResult, missing []string, err error) {
	results, missing, _, err = sys.search(keywords, topK)
	return results, missing, err
}

// search is Search, also returning the request's fetcher (nil when keywords
// are missing) for SearchPartial's MPAN fetches.
func (sys *System) search(keywords []string, topK int) (results []SearchResult, missing []string, f *fetcher, err error) {
	if topK <= 0 {
		return nil, nil, nil, fmt.Errorf("core: topK must be positive, got %d", topK)
	}
	ph, err := sys.phase12(keywords, true)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(ph.nonKeywords) > 0 {
		return nil, ph.nonKeywords, nil, nil
	}
	f = sys.newFetcher(keywords)
	top := newBestK(topK, compareResults)
	for _, id := range ph.mtnIDs {
		// Rows come back in join-enumeration order, not score order, so a
		// bounded per-network fetch is needed for safety but must leave
		// headroom: the top-k is exact unless one network yields more than
		// perNetworkFactor*topK tuples (joins over free tuple sets can
		// explode combinatorially).
		cols, rows, err := f.rows(id, topK*perNetworkFactor)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(rows) == 0 {
			continue
		}
		x, _ := ph.entry.sub.index(id)
		info := ph.entry.info(x)
		textCols := sys.textColumnIndexes(sys.lat.Node(id))
		for _, row := range rows {
			top.offer(SearchResult{Query: info, Columns: cols, Tuple: row, Score: f.score(row, textCols, info.Level)})
		}
	}
	return top.sorted(), nil, f, nil
}

// fetcher is one search request's row source and scorer. It routes every
// fetch through the System's verdict cache, under the key Debug's probes
// use: a fetch and a probe of one node share FROM and WHERE (lattice.Select
// differs only in projection and LIMIT, and the fetch LIMIT is at least 1),
// so the rows a fetch returns prove the probe's verdict, and a proved dead
// verdict makes the fetch unnecessary.
type fetcher struct {
	sys      *System
	keywords []string
	// cache is nil when the System has none; then no lookups or stores
	// happen. view is the request's version snapshot, taken once before the
	// first lookup, that stored verdicts are stamped against.
	cache *probecache.Cache
	view  *vervec.View
	// kwTokens are the keywords' tokens; buf is tokenHits's token buffer,
	// reused across the request's cells.
	kwTokens []string
	buf      []byte
}

func (sys *System) newFetcher(keywords []string) *fetcher {
	f := &fetcher{sys: sys, keywords: keywords}
	for _, kw := range keywords {
		f.kwTokens = append(f.kwTokens, invidx.Tokenize(kw)...)
	}
	if c := sys.ProbeCache(); c != nil {
		f.cache = c
		f.view = c.SyncVersions(sys.eng.Versions())
	}
	return f
}

// rows fetches up to limit rows of the node's query. A node the cache holds
// as dead yields no rows and runs no SQL; a miss, a suspect verdict (a write
// may have revived it) or an alive verdict fetches, and the fetch's verdict
// is stored — over a suspect, that store is the cache's repair.
func (f *fetcher) rows(nodeID, limit int) (columns []string, rows [][]storage.Value, err error) {
	var key string
	if f.cache != nil {
		node := f.sys.lat.Node(nodeID)
		key = probecache.Key(node.Label, node.CopyMask, f.keywords)
		if alive, outcome := f.cache.Lookup(key); outcome == probecache.Hit && !alive {
			return nil, nil, nil
		}
	}
	columns, rows, err = f.sys.Results(nodeID, f.keywords, limit)
	if err != nil {
		return nil, nil, err
	}
	if f.cache != nil {
		f.cache.PutFP(key, len(rows) > 0, nodeFootprint(f.sys.lat, nodeID, f.keywords), f.view)
	}
	return columns, rows, nil
}

// score is the relevance score of a result row of a join over level
// relations.
func (f *fetcher) score(row []storage.Value, textCols []int, level int) float64 {
	tf := 0
	for _, ci := range textCols {
		tf += tokenHits(row[ci].S, f.kwTokens, &f.buf)
	}
	return float64(tf) / float64(level)
}

// compareResults orders search results: higher score first, then the
// smaller join, then the tree rendering.
func compareResults(a, b *SearchResult) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Query.Level, b.Query.Level); c != 0 {
		return c
	}
	return strings.Compare(a.Query.Tree, b.Query.Tree)
}

// textColumnIndexes returns the positions of text columns within a node's
// SELECT * output (aliases are emitted in vertex order, columns in schema
// order).
func (sys *System) textColumnIndexes(node *lattice.Node) []int {
	var out []int
	pos := 0
	for _, v := range node.Vertices {
		rel, _ := sys.lat.Schema().Relation(v.Rel)
		for _, c := range rel.Columns {
			if c.Type == catalog.Text {
				out = append(out, pos)
			}
			pos++
		}
	}
	return out
}

// tokenHits counts how many keyword tokens occur in the cell (each distinct
// occurrence of each token counts once per token). It splits the cell
// exactly as invidx.Tokenize does — lowercased maximal runs of letters and
// digits — but builds each token in *buf, which it keeps for the next call,
// instead of a fresh slice of strings.
func tokenHits(cell string, kwTokens []string, buf *[]byte) int {
	hits := 0
	tok := (*buf)[:0]
	for _, r := range cell {
		if r < utf8.RuneSelf {
			switch {
			case 'a' <= r && r <= 'z', '0' <= r && r <= '9':
				tok = append(tok, byte(r))
				continue
			case 'A' <= r && r <= 'Z':
				tok = append(tok, byte(r-'A'+'a'))
				continue
			}
		} else if unicode.IsLetter(r) || unicode.IsDigit(r) {
			tok = utf8.AppendRune(tok, unicode.ToLower(r))
			continue
		}
		hits += tokenCount(tok, kwTokens)
		tok = tok[:0]
	}
	hits += tokenCount(tok, kwTokens)
	*buf = tok[:0]
	return hits
}

// tokenCount counts the keyword tokens equal to tok; an empty tok (no token
// in progress) matches none.
func tokenCount(tok []byte, kwTokens []string) int {
	if len(tok) == 0 {
		return 0
	}
	n := 0
	for _, k := range kwTokens {
		if string(tok) == k {
			n++
		}
	}
	return n
}

// bestK keeps the k best of a stream of items, ranked by order and then by
// arrival, so it returns exactly what a stable sort of the whole stream
// followed by truncation to k would, while holding only k items. It is a
// max-heap on that ranking — h[0] is the worst item kept — typed so that
// items are not boxed through an interface on every offer.
type bestK[T any] struct {
	k     int
	order func(a, b *T) int
	h     []kept[T]
	n     int // arrivals so far
}

// kept is one kept item with its arrival index.
type kept[T any] struct {
	v   T
	seq int
}

func newBestK[T any](k int, order func(a, b *T) int) *bestK[T] {
	return &bestK[T]{k: k, order: order}
}

// ahead reports whether x ranks before y.
func (t *bestK[T]) ahead(x, y *kept[T]) bool {
	if c := t.order(&x.v, &y.v); c != 0 {
		return c < 0
	}
	return x.seq < y.seq
}

// offer adds v to the stream, keeping it if it ranks among the k best.
func (t *bestK[T]) offer(v T) {
	it := kept[T]{v: v, seq: t.n}
	t.n++
	if len(t.h) < t.k {
		t.h = append(t.h, it)
		for j := len(t.h) - 1; j > 0; {
			parent := (j - 1) / 2
			if !t.ahead(&t.h[parent], &t.h[j]) {
				break
			}
			t.h[j], t.h[parent] = t.h[parent], t.h[j]
			j = parent
		}
		return
	}
	if !t.ahead(&it, &t.h[0]) {
		return
	}
	t.h[0] = it
	t.down(len(t.h))
}

// down restores the heap order over h[:n] after h[0] changed.
func (t *bestK[T]) down(n int) {
	for i := 0; ; {
		worst, l := i, 2*i+1
		if l < n && t.ahead(&t.h[worst], &t.h[l]) {
			worst = l
		}
		if r := l + 1; r < n && t.ahead(&t.h[worst], &t.h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// sorted returns the kept items best first, or nil when none arrived. It
// consumes the heap.
func (t *bestK[T]) sorted() []T {
	if len(t.h) == 0 {
		return nil
	}
	out := make([]T, len(t.h))
	for n := len(t.h) - 1; n >= 0; n-- {
		out[n] = t.h[0].v
		t.h[0] = t.h[n]
		t.down(n)
	}
	return out
}

// String renders a search result compactly for CLIs.
func (r SearchResult) String() string {
	var parts []string
	for i, v := range r.Tuple {
		if v.Kind == catalog.Text && v.S != "" {
			parts = append(parts, r.Columns[i]+"="+v.S)
		}
	}
	return fmt.Sprintf("%.2f %s [%s]", r.Score, r.Query.Tree, strings.Join(parts, " "))
}
