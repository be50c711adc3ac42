package core

import (
	"cmp"
	"strings"
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
// symmetry the paper's introduction points out. The candidate-network and
// MPAN fetches read and write the verdict cache as Search's do, so the
// dead candidate networks a Search proved are free for the Debug run here.
func (sys *System) SearchPartial(keywords []string, topK int) (full []SearchResult, partial []PartialResult, missing []string, err error) {
	full, missing, f, err := sys.search(keywords, topK)
	if err != nil || len(missing) > 0 || len(full) > 0 {
		return full, nil, missing, err
	}
	out, err := sys.Debug(keywords, Options{Strategy: SBH})
	if err != nil {
		return nil, nil, nil, err
	}
	top := newBestK(topK, comparePartials)
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
			cols, rows, err := f.rows(p.NodeID, topK)
			if err != nil {
				return nil, nil, nil, err
			}
			textCols := sys.textColumnIndexes(node)
			for _, row := range rows {
				top.offer(PartialResult{
					Covered: covered,
					SearchResult: SearchResult{
						Query:   p,
						Columns: cols,
						Tuple:   row,
						Score:   f.score(row, textCols, node.Level),
					},
				})
			}
		}
	}
	return nil, top.sorted(), nil, nil
}

// comparePartials orders partial results: more keywords covered first, then
// higher score, then the tree rendering.
func comparePartials(a, b *PartialResult) int {
	if c := cmp.Compare(len(b.Covered), len(a.Covered)); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return strings.Compare(a.Query.Tree, b.Query.Tree)
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
