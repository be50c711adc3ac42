package core

import (
	"reflect"
	"strings"
	"testing"

	"kwsdbg/internal/probecache"
)

func TestSearchBasic(t *testing.T) {
	sys := productSystem(t)
	results, missing, err := sys.Search([]string{"scented", "candle"}, 10)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
	if len(results) == 0 {
		t.Fatal("no results for scented candle")
	}
	// Every result tuple actually contains matches, and scores are sorted.
	for i, r := range results {
		if r.Score <= 0 {
			t.Errorf("result %d has score %v", i, r.Score)
		}
		if i > 0 && r.Score > results[i-1].Score {
			t.Errorf("result %d out of order: %v after %v", i, r.Score, results[i-1].Score)
		}
		if len(r.Columns) != len(r.Tuple) {
			t.Errorf("result %d: %d columns, %d values", i, len(r.Columns), len(r.Tuple))
		}
	}
	// The top results come from the tightest joins.
	if results[0].Query.Level > results[len(results)-1].Query.Level {
		t.Errorf("loosest join ranked above tightest: %+v", results[0].Query)
	}
	// The candle items themselves must surface.
	found := false
	for _, r := range results {
		if strings.Contains(r.String(), "vanilla scented candle") ||
			strings.Contains(r.String(), "crimson scented candle") {
			found = true
		}
	}
	if !found {
		t.Error("scented candles missing from search results")
	}
}

func TestSearchTopK(t *testing.T) {
	sys := productSystem(t)
	all, _, err := sys.Search([]string{"scented", "candle"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := sys.Search([]string{"scented", "candle"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Fatalf("topK=2 returned %d", len(two))
	}
	if len(all) <= 2 {
		t.Fatalf("expected more than 2 total results, got %d", len(all))
	}
	// The top-2 of the full list match the truncated call.
	for i := range two {
		if two[i].Score != all[i].Score || two[i].Query.Tree != all[i].Query.Tree {
			t.Errorf("topK result %d differs: %+v vs %+v", i, two[i], all[i])
		}
	}
}

func TestSearchMissingKeyword(t *testing.T) {
	sys := productSystem(t)
	results, missing, err := sys.Search([]string{"zzz", "candle"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || !reflect.DeepEqual(missing, []string{"zzz"}) {
		t.Errorf("results=%d missing=%v", len(results), missing)
	}
}

func TestSearchNonAnswerIsEmpty(t *testing.T) {
	sys := productSystem(t)
	// All interpretations of this phrase are... one is alive (the shared
	// product-type network), so use a genuinely dead combination.
	results, missing, err := sys.Search([]string{"pink", "checkered"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
	// pink items do not exist; the keyword binds only to Color. Whatever
	// comes back must genuinely contain both keywords somewhere.
	for _, r := range results {
		s := strings.ToLower(r.String())
		if !strings.Contains(s, "pink") && !strings.Contains(s, "checkered") {
			t.Errorf("result without any keyword: %s", r.String())
		}
	}
}

func TestSearchErrors(t *testing.T) {
	sys := productSystem(t)
	if _, _, err := sys.Search([]string{"candle"}, 0); err == nil {
		t.Error("topK=0 accepted")
	}
	if _, _, err := sys.Search(nil, 5); err == nil {
		t.Error("empty query accepted")
	}
}

// TestSearchRepairsRevivedNetwork pins the verdict-cache contract of
// search under a write. SearchPartial proves every candidate network of
// "saffron scented incense" dead and caches those verdicts; an INSERT then
// joins the existing saffron Color and incense PType rows through a new
// scented Item. The next Search must see the revived network: the write
// turns its cached dead verdict suspect, so Search fetches it again instead
// of skipping it, and the store that follows is the cache's repair.
func TestSearchRepairsRevivedNetwork(t *testing.T) {
	sys := productSystem(t)
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	kws := []string{"saffron", "scented", "incense"}
	full, partial, _, err := sys.SearchPartial(kws, 10)
	if err != nil {
		t.Fatalf("SearchPartial: %v", err)
	}
	if len(full) != 0 || len(partial) == 0 {
		t.Fatalf("before the write: %d full, %d partial results; want partials only", len(full), len(partial))
	}
	if _, err := sys.Engine().Exec("INSERT INTO Item VALUES (999, 'scented thing', 3, 4, 0, 1.0, 'plain')"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	results, _, err := sys.Search(kws, 10)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	found := false
	for _, r := range results {
		for i, col := range r.Columns {
			if strings.HasSuffix(col, ".name") && r.Tuple[i].S == "scented thing" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("Search after the write misses the revived network's row: %v", results)
	}
	if st := sys.ProbeCache().Snapshot(); st.Suspects == 0 || st.Repairs == 0 {
		t.Errorf("cache stats %+v: want suspects and repairs from the revived verdict", st)
	}
}
