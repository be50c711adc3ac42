package core

import (
	"sort"

	"kwsdbg/internal/invidx"
)

// PartialResult is one tuple from a maximal alive sub-query, returned when
// the full keyword query has no answers: the paper's Figure 1, where
// buy.com answers "saffron scented candle" with saffron-scented products and
// scented candles instead of an empty page.
type PartialResult struct {
	// Covered lists the keywords this sub-query does satisfy, in query
	// order. The missing ones are exactly what the result row lacks.
	Covered []string
	SearchResult
}

// SearchPartial is the end-user fallback behind "no results found": when the
// keyword query has alive candidate networks it behaves exactly like Search
// (full results, empty partials); when every candidate network is dead, it
// evaluates the maximal alive sub-queries (the same MPANs the debugger
// reports to developers) and returns their top rows, ranked by keyword
// coverage first and relevance second. One lattice traversal serves both the
// developer-facing explanation and the user-facing partial results — the
// symmetry the paper's introduction points out.
func (sys *System) SearchPartial(keywords []string, topK int) (full []SearchResult, partial []PartialResult, missing []string, err error) {
	full, missing, err = sys.Search(keywords, topK)
	if err != nil || len(missing) > 0 || len(full) > 0 {
		return full, nil, missing, err
	}
	out, err := sys.Debug(keywords, Options{Strategy: SBH})
	if err != nil {
		return nil, nil, nil, err
	}
	var kwTokens []string
	for _, kw := range keywords {
		kwTokens = append(kwTokens, invidx.Tokenize(kw)...)
	}
	seen := make(map[int]bool)
	for _, na := range out.NonAnswers {
		for _, p := range na.MPANs {
			if seen[p.NodeID] {
				continue
			}
			seen[p.NodeID] = true
			node := sys.lat.Node(p.NodeID)
			covered := coveredKeywords(node.CopyMask, keywords)
			if len(covered) == 0 {
				continue // a free-only frontier carries nothing to show
			}
			sel, err := sys.lat.Select(node, keywords, false)
			if err != nil {
				return nil, nil, nil, err
			}
			sel.Limit = topK
			res, err := sys.eng.Select(sel)
			if err != nil {
				return nil, nil, nil, err
			}
			info := sys.queryInfo(p.NodeID)
			textCols := sys.textColumnIndexes(node)
			for _, row := range res.Rows {
				tf := 0
				for _, ci := range textCols {
					tf += tokenHits(row[ci].S, kwTokens)
				}
				partial = append(partial, PartialResult{
					Covered: covered,
					SearchResult: SearchResult{
						Query:   info,
						Columns: res.Columns,
						Tuple:   row,
						Score:   float64(tf) / float64(node.Level),
					},
				})
			}
		}
	}
	sort.SliceStable(partial, func(i, j int) bool {
		if len(partial[i].Covered) != len(partial[j].Covered) {
			return len(partial[i].Covered) > len(partial[j].Covered)
		}
		if partial[i].Score != partial[j].Score {
			return partial[i].Score > partial[j].Score
		}
		return partial[i].Query.Tree < partial[j].Query.Tree
	})
	if len(partial) > topK {
		partial = partial[:topK]
	}
	return nil, partial, nil, nil
}

// coveredKeywords maps a node's copy mask back to the keywords it covers.
func coveredKeywords(mask uint64, keywords []string) []string {
	var out []string
	for i := range keywords {
		if mask&(1<<uint(i+1)) != 0 {
			out = append(out, keywords[i])
		}
	}
	return out
}
