package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
)

// Reference tests for the search fast paths: each keeps the algorithm it
// replaced as its reference.

// refTokenHits is tokenHits's previous algorithm: tokenize the cell into a
// slice, count the tokens in a map, and sum the keyword tokens' counts.
func refTokenHits(cell string, kwTokens []string) int {
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

// refKwTokens tokenizes a query's keywords as both search algorithms do.
func refKwTokens(keywords []string) []string {
	var kwTokens []string
	for _, kw := range keywords {
		kwTokens = append(kwTokens, invidx.Tokenize(kw)...)
	}
	return kwTokens
}

// refQueryInfo describes a node as the output step did before the
// per-binding cache held its tree label.
func refQueryInfo(sys *System, nodeID int) QueryInfo {
	n := sys.lat.Node(nodeID)
	return QueryInfo{NodeID: nodeID, Level: n.Level, Tree: n.String()}
}

// refSearch is Search's previous algorithm: fetch every candidate network
// without consulting the verdict cache, collect every row, stable-sort, and
// truncate to topK.
func refSearch(sys *System, keywords []string, topK int) ([]SearchResult, []string, error) {
	if topK <= 0 {
		return nil, nil, fmt.Errorf("core: topK must be positive, got %d", topK)
	}
	ph, err := sys.phase12(keywords, false)
	if err != nil {
		return nil, nil, err
	}
	if len(ph.nonKeywords) > 0 {
		return nil, ph.nonKeywords, nil
	}
	kwTokens := refKwTokens(keywords)
	var results []SearchResult
	for _, id := range ph.mtnIDs {
		node := sys.lat.Node(id)
		sel, err := sys.lat.Select(node, keywords, false)
		if err != nil {
			return nil, nil, err
		}
		sel.Limit = topK * perNetworkFactor
		res, err := sys.eng.Select(sel)
		if err != nil {
			return nil, nil, err
		}
		info := refQueryInfo(sys, id)
		textCols := sys.textColumnIndexes(node)
		for _, row := range res.Rows {
			tf := 0
			for _, ci := range textCols {
				tf += refTokenHits(row[ci].S, kwTokens)
			}
			results = append(results, SearchResult{
				Query: info, Columns: res.Columns, Tuple: row,
				Score: float64(tf) / float64(node.Level),
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

// refSearchPartial is SearchPartial's previous algorithm, on refSearch.
func refSearchPartial(sys *System, keywords []string, topK int) ([]SearchResult, []PartialResult, []string, error) {
	full, missing, err := refSearch(sys, keywords, topK)
	if err != nil || len(missing) > 0 || len(full) > 0 {
		return full, nil, missing, err
	}
	out, err := sys.Debug(keywords, Options{Strategy: SBH})
	if err != nil {
		return nil, nil, nil, err
	}
	kwTokens := refKwTokens(keywords)
	var partial []PartialResult
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
				continue
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
			info := refQueryInfo(sys, p.NodeID)
			textCols := sys.textColumnIndexes(node)
			for _, row := range res.Rows {
				tf := 0
				for _, ci := range textCols {
					tf += refTokenHits(row[ci].S, kwTokens)
				}
				partial = append(partial, PartialResult{Covered: covered, SearchResult: SearchResult{
					Query: info, Columns: res.Columns, Tuple: row,
					Score: float64(tf) / float64(node.Level),
				}})
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

// tokenRunes are the characters random cells are drawn from: ASCII letters
// of both cases, digits and punctuation; accented, upper-case and other
// non-ASCII letters (Ω and Д lowercase to multi-byte runes, İ to ASCII);
// non-ASCII digits and symbols; and the replacement character itself.
var tokenRunes = []rune("aAbBzZ019 .,-_'\"/éÉüÜßñÑΩωДдİı٣²€ �漢")

// randomCell returns a random string over tokenRunes, sometimes with
// invalid UTF-8 bytes spliced in.
func randomCell(r *rand.Rand) string {
	var sb strings.Builder
	for n := r.Intn(24); n > 0; n-- {
		if r.Intn(12) == 0 {
			sb.WriteByte([]byte{0xff, 0xc3, 0x80, 0xe2}[r.Intn(4)])
			continue
		}
		sb.WriteRune(tokenRunes[r.Intn(len(tokenRunes))])
	}
	return sb.String()
}

// randomKwTokens draws keyword tokens from the tokens of random cells,
// with duplicates and, now and then, a token Tokenize could not yield.
func randomKwTokens(r *rand.Rand) []string {
	var out []string
	for len(out) < 1+r.Intn(4) {
		toks := invidx.Tokenize(randomCell(r))
		if len(toks) == 0 {
			continue
		}
		tok := toks[r.Intn(len(toks))]
		out = append(out, tok)
		if r.Intn(3) == 0 {
			out = append(out, tok)
		}
		if r.Intn(6) == 0 {
			out = append(out, strings.ToUpper(tok))
		}
	}
	return out
}

func TestTokenHitsMatchesTokenize(t *testing.T) {
	r := rand.New(rand.NewSource(20150327))
	var buf []byte
	for trial := 0; trial < 20000; trial++ {
		kw := randomKwTokens(r)
		cell := randomCell(r)
		if trial%4 == 0 {
			// Make matches likely: splice keyword tokens into the cell.
			cell += " " + strings.ToUpper(kw[0]) + "," + kw[len(kw)-1] + cell
		}
		if got, want := tokenHits(cell, kw, &buf), refTokenHits(cell, kw); got != want {
			t.Fatalf("tokenHits(%q, %q) = %d, want %d", cell, kw, got, want)
		}
	}
}

// FuzzTokenHits checks tokenHits against the Tokenize-and-map reference on
// arbitrary cells; the keyword tokens are the second input's tokens plus its
// raw space-separated fields, so duplicates and untokenized forms occur.
func FuzzTokenHits(f *testing.F) {
	for _, seed := range [][2]string{
		{"saffron scented oil", "saffron scented"},
		{"Hand-made. SAFFRON scented. 2pck.", "saffron Saffron saffron"},
		{"Ünïcödé ÉTÉ été", "été ünïcödé"},
		{"ΩΜΕΓΑ ωμεγα Дом дом İstanbul", "ωμεγα дом i̇stanbul istanbul"},
		{"a\xffb \xc3 c\xe2\x82", "a b c"},
		{"x²٣ 12ab 12AB", "x 12ab ٣"},
		{"", "empty"},
		{"no keywords here", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	var buf []byte
	f.Fuzz(func(t *testing.T, cell, kws string) {
		kw := append(invidx.Tokenize(kws), strings.Split(kws, " ")...)
		if got, want := tokenHits(cell, kw, &buf), refTokenHits(cell, kw); got != want {
			t.Fatalf("tokenHits(%q, %q) = %d, want %d", cell, kw, got, want)
		}
	})
}

// TestTokenHitsAllocFree pins the scoring path at zero allocations once the
// token buffer has grown to the cell's longest token.
func TestTokenHitsAllocFree(t *testing.T) {
	kw := []string{"saffron", "scented", "été", "дом", "saffron"}
	var buf []byte
	for _, cell := range []string{
		"hand-made. SAFFRON scented. 2pck.",
		"ÉTÉ à Дом: saffron-scented candles, 6.4 oz.",
	} {
		tokenHits(cell, kw, &buf)
		if allocs := testing.AllocsPerRun(100, func() { tokenHits(cell, kw, &buf) }); allocs != 0 {
			t.Errorf("tokenHits(%q) allocates %v times per call, want 0", cell, allocs)
		}
	}
}

// TestBestKMatchesStableSort checks the bounded top-k against a stable sort
// of the whole stream plus truncation, on streams with many equal scores,
// levels and trees, so that arrival order decides most ties.
func TestBestKMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	trees := []string{"A#1", "A#1-B#0", "B#2", "B#2-C#1"}
	covers := [][]string{{"x"}, {"x", "y"}, {"y"}}
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(40)
		var results []SearchResult
		var partials []PartialResult
		for i := 0; i < n; i++ {
			res := SearchResult{
				Query: QueryInfo{NodeID: i, Level: 1 + r.Intn(3), Tree: trees[r.Intn(len(trees))]},
				Score: float64(r.Intn(4)) / float64(1+r.Intn(2)),
			}
			results = append(results, res)
			partials = append(partials, PartialResult{Covered: covers[r.Intn(len(covers))], SearchResult: res})
		}
		for _, k := range []int{1, 2, 10, n + 1} {
			top := newBestK(k, compareResults)
			for _, res := range results {
				top.offer(res)
			}
			want := append([]SearchResult(nil), results...)
			sort.SliceStable(want, func(i, j int) bool {
				if want[i].Score != want[j].Score {
					return want[i].Score > want[j].Score
				}
				if want[i].Query.Level != want[j].Query.Level {
					return want[i].Query.Level < want[j].Query.Level
				}
				return want[i].Query.Tree < want[j].Query.Tree
			})
			if len(want) > k {
				want = want[:k]
			}
			if got := top.sorted(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d: results\ngot:  %+v\nwant: %+v", trial, k, got, want)
			}

			ptop := newBestK(k, comparePartials)
			for _, p := range partials {
				ptop.offer(p)
			}
			pwant := append([]PartialResult(nil), partials...)
			sort.SliceStable(pwant, func(i, j int) bool {
				if len(pwant[i].Covered) != len(pwant[j].Covered) {
					return len(pwant[i].Covered) > len(pwant[j].Covered)
				}
				if pwant[i].Score != pwant[j].Score {
					return pwant[i].Score > pwant[j].Score
				}
				return pwant[i].Query.Tree < pwant[j].Query.Tree
			})
			if len(pwant) > k {
				pwant = pwant[:k]
			}
			if got := ptop.sorted(); !reflect.DeepEqual(got, pwant) {
				t.Fatalf("trial %d k=%d: partials\ngot:  %+v\nwant: %+v", trial, k, got, pwant)
			}
		}
	}
}

// searchOutcome is everything Search and SearchPartial return for one call.
type searchOutcome struct {
	Full    []SearchResult
	Missing []string
	PFull   []SearchResult
	Partial []PartialResult
	PMiss   []string
}

// checkSearchAgainstReference runs Search and SearchPartial for each query
// and topK over eng and lat, without a verdict cache and with one that is
// cold, warm from the same call, or warmed by a Debug run, and requires
// every outcome to equal the reference algorithms' on a cache-less System.
func checkSearchAgainstReference(t *testing.T, name string, eng *engine.Engine, lat *lattice.Lattice, queries [][]string, ks []int) {
	t.Helper()
	newSys := func() *System {
		sys, err := NewSystem(eng, lat)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		return sys
	}
	ref, plain, cached := newSys(), newSys(), newSys()
	run := func(sys *System, search bool, kws []string, k int) searchOutcome {
		var o searchOutcome
		var err error
		if search {
			o.Full, o.Missing, err = sys.Search(kws, k)
		} else {
			o.PFull, o.Partial, o.PMiss, err = sys.SearchPartial(kws, k)
		}
		if err != nil {
			t.Fatalf("%s %v k=%d: %v", name, kws, k, err)
		}
		return o
	}
	for _, kws := range queries {
		for _, k := range ks {
			var want searchOutcome
			var err error
			if want.Full, want.Missing, err = refSearch(ref, kws, k); err != nil {
				t.Fatalf("%s %v k=%d: reference search: %v", name, kws, k, err)
			}
			if want.PFull, want.Partial, want.PMiss, err = refSearchPartial(ref, kws, k); err != nil {
				t.Fatalf("%s %v k=%d: reference partial: %v", name, kws, k, err)
			}
			wantSearch := searchOutcome{Full: want.Full, Missing: want.Missing}
			wantPartial := searchOutcome{PFull: want.PFull, Partial: want.Partial, PMiss: want.PMiss}
			check := func(mode string, got, want searchOutcome) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v k=%d (%s): diverges from the reference\ngot:  %+v\nwant: %+v",
						name, kws, k, mode, got, want)
				}
			}
			for _, search := range []bool{true, false} {
				want := wantPartial
				if search {
					want = wantSearch
				}
				check("no cache", run(plain, search, kws, k), want)
				cached.SetProbeCache(probecache.New(probecache.Config{}))
				check("cold cache", run(cached, search, kws, k), want)
				check("warm cache", run(cached, search, kws, k), want)
				cached.SetProbeCache(probecache.New(probecache.Config{}))
				if _, err := cached.Debug(kws, Options{Strategy: SBH}); err != nil {
					t.Fatalf("%s %v: warming Debug: %v", name, kws, err)
				}
				check("debug-warmed cache", run(cached, search, kws, k), want)
			}
		}
	}
}

func TestSearchMatchesReferenceFigure2(t *testing.T) {
	sys := productSystem(t)
	queries := [][]string{
		{"saffron", "scented", "candle"},
		{"saffron", "scented", "incense"},
		{"scented", "candle"},
		{"pink", "checkered"},
		{"red", "candle"},
		{"saffron"},
		{"floral", "oil"},
		{"zzz", "candle"},
	}
	checkSearchAgainstReference(t, "figure2", sys.eng, sys.lat, queries, []int{1, 3, 10, 40})
}

func TestSearchMatchesReferenceDBLife(t *testing.T) {
	var queries [][]string
	for _, q := range dblife.Workload() {
		queries = append(queries, q.Keywords)
	}
	for _, level := range []int{3, 5} {
		sys := dblifeSystem(t, level)
		checkSearchAgainstReference(t, fmt.Sprintf("dblife level %d", level), sys.eng, sys.lat, queries, []int{1, 3, 10, 40})
	}
}
