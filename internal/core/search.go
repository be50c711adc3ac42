package core

import (
	"fmt"
	"sort"
	"strings"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/storage"
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
// rank above long join chains. Non-answers contribute nothing here — they
// are the debugger's department (Debug) — but a query whose keywords are
// absent from the data reports them via the returned missing slice, the same
// "and" semantics cut-off as Debug.
func (sys *System) Search(keywords []string, topK int) (results []SearchResult, missing []string, err error) {
	if topK <= 0 {
		return nil, nil, fmt.Errorf("core: topK must be positive, got %d", topK)
	}
	ph, err := sys.phase12(keywords)
	if err != nil {
		return nil, nil, err
	}
	if len(ph.nonKeywords) > 0 {
		return nil, ph.nonKeywords, nil
	}
	var kwTokens []string
	for _, kw := range keywords {
		kwTokens = append(kwTokens, invidx.Tokenize(kw)...)
	}
	for _, id := range ph.mtnIDs {
		node := sys.lat.Node(id)
		sel, err := sys.lat.Select(node, keywords, false)
		if err != nil {
			return nil, nil, err
		}
		// Rows come back in join-enumeration order, not score order, so a
		// bounded per-network fetch is needed for safety but must leave
		// headroom: the top-k is exact unless one network yields more than
		// perNetworkFactor*topK tuples (joins over free tuple sets can
		// explode combinatorially).
		sel.Limit = topK * perNetworkFactor
		res, err := sys.eng.Select(sel)
		if err != nil {
			return nil, nil, err
		}
		if len(res.Rows) == 0 {
			continue
		}
		info := sys.queryInfo(id)
		textCols := sys.textColumnIndexes(node)
		for _, row := range res.Rows {
			tf := 0
			for _, ci := range textCols {
				tf += tokenHits(row[ci].S, kwTokens)
			}
			results = append(results, SearchResult{
				Query:   info,
				Columns: res.Columns,
				Tuple:   row,
				Score:   float64(tf) / float64(node.Level),
			})
		}
	}
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		if results[i].Query.Level != results[j].Query.Level {
			return results[i].Query.Level < results[j].Query.Level
		}
		return results[i].Query.Tree < results[j].Query.Tree
	})
	if len(results) > topK {
		results = results[:topK]
	}
	return results, nil, nil
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
// occurrence of each token counts once per token).
func tokenHits(cell string, kwTokens []string) int {
	if cell == "" {
		return 0
	}
	have := make(map[string]int)
	for _, tok := range invidx.Tokenize(cell) {
		have[tok]++
	}
	hits := 0
	for _, tok := range kwTokens {
		hits += have[tok]
	}
	return hits
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
