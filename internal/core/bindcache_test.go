package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
)

// TestBindingCacheAccounting checks the cache on its own: each entry is
// charged its size plus its key, the least recently used entry goes first,
// an entry larger than the bound is left out, and a concurrent miss that
// stores second keeps the first entry.
func TestBindingCacheAccounting(t *testing.T) {
	c := newBindingCache(1000)
	entry := func(size int) *bindingEntry { return &bindingEntry{size: size} }
	key := func(s string) []byte { return []byte(s) }
	check := func(entries, bytes int, hits, misses, evictions int64) {
		t.Helper()
		want := BindingCacheStats{Entries: entries, Bytes: bytes, Hits: hits, Misses: misses, Evictions: evictions}
		if got := c.stats(); got != want {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	}

	a, b := entry(300), entry(400)
	if c.get(key("a")) != nil {
		t.Fatal("empty cache hit")
	}
	c.put(key("a"), a)
	c.put(key("b"), b)
	check(2, 300+1+400+1, 0, 1, 0)
	if c.get(key("a")) != a || c.get(key("b")) != b {
		t.Fatal("stored entries not returned")
	}
	check(2, 702, 2, 1, 0)

	// A second store under a present key keeps the first entry.
	c.put(key("a"), entry(10))
	if c.get(key("a")) != a {
		t.Fatal("a second store replaced the cached entry")
	}
	check(2, 702, 3, 1, 0)

	// "a" was used last, so a third entry that overflows evicts "b".
	d := entry(300)
	c.put(key("dd"), d)
	check(2, 301+302, 3, 1, 1)
	if c.get(key("b")) != nil || c.get(key("a")) != a || c.get(key("dd")) != d {
		t.Fatal("eviction did not drop the least recently used entry")
	}
	check(2, 603, 5, 2, 1)

	// An entry that does not fit the bound on its own is served uncached;
	// one that fits exactly evicts everything else.
	c.put(key("big"), entry(1000))
	if c.get(key("big")) != nil {
		t.Fatal("an oversized entry was cached")
	}
	check(2, 603, 5, 3, 1)
	e := entry(997)
	c.put(key("fit"), e)
	check(1, 1000, 5, 3, 3)
	if c.get(key("fit")) != e {
		t.Fatal("an entry of exactly the bound was not cached")
	}
}

// TestBindingKeys checks the key: the binding's words and the keyword
// count, distinct for distinct bindings.
func TestBindingKeys(t *testing.T) {
	b := lattice.Bindings{0x0102030405060708, 1}
	got := appendBindKey(nil, b, 3)
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("key = %v, want %v", got, want)
	}
	if string(appendBindKey(nil, b, 2)) == string(got) {
		t.Fatal("keyword count not in the key")
	}
}

// cacheCheck runs one query three ways — a first run on sys (fresh when the
// binding is new to sys), a second run the per-binding cache answers, and a
// run on a new System over the same engine and lattice, which builds its own
// entry — and requires the three outputs, timings masked, to be equal. It
// returns the first run's output.
func cacheCheck(t *testing.T, sys *System, kws []string, opts Options) *Output {
	t.Helper()
	run := func(sys *System) Output {
		t.Helper()
		out, err := sys.Debug(kws, opts)
		if err != nil {
			t.Fatalf("%v %v workers=%d: %v", kws, opts.Strategy, opts.Workers, err)
		}
		return normalized(out)
	}
	first := run(sys)
	hits := sys.BindingCacheStats().Hits
	hit := run(sys)
	if len(first.NonKeywords) == 0 && sys.BindingCacheStats().Hits != hits+1 {
		t.Fatalf("%v: the second run did not hit the binding cache", kws)
	}
	other, err := NewSystem(sys.eng, sys.lat)
	if err != nil {
		t.Fatal(err)
	}
	fresh := run(other)
	if len(first.NonKeywords) == 0 && other.BindingCacheStats().Misses != 1 {
		t.Fatalf("%v: the new System's run did not build its own entry", kws)
	}
	if !reflect.DeepEqual(hit, first) {
		t.Fatalf("%v %v workers=%d: cache hit differs from the first run\nhit:   %+v\nfirst: %+v",
			kws, opts.Strategy, opts.Workers, hit, first)
	}
	if !reflect.DeepEqual(fresh, first) {
		t.Fatalf("%v %v workers=%d: a new System's fresh build differs from the first run\nfresh: %+v\nfirst: %+v",
			kws, opts.Strategy, opts.Workers, fresh, first)
	}
	return &first
}

// allStrategies are the five traversals and Return Everything.
var allStrategies = append(append([]Strategy{}, Strategies...), RE)

// checkQueriesCached runs cacheCheck for every strategy at workers 1 and 4,
// each combination on a fresh System over sys's engine and lattice, so every
// query's first run misses.
func checkQueriesCached(t *testing.T, sys *System, queries [][]string) {
	t.Helper()
	for _, strat := range allStrategies {
		for _, workers := range []int{1, 4} {
			fresh, err := NewSystem(sys.eng, sys.lat)
			if err != nil {
				t.Fatal(err)
			}
			for _, kws := range queries {
				cacheCheck(t, fresh, kws, Options{Strategy: strat, Workers: workers})
			}
		}
	}
}

// TestBindingCacheMatchesFreshBuild is the per-binding cache's reference
// test: on Figure 2, on random schemas and on DBLife Q1-Q10 at levels 3 and
// 5, every strategy at workers 1 and 4 reports the same output on a cache
// hit as on the run that built the entry and as on a run that builds a
// private one.
func TestBindingCacheMatchesFreshBuild(t *testing.T) {
	checkQueriesCached(t, productSystem(t), onlineCNQueries)

	r := rand.New(rand.NewSource(20261018))
	vocab := []string{"amber", "birch", "cedar", "dune", "ember", "flint", "grove", "haze", "missing"}
	for trial := 0; trial < 8; trial++ {
		sys, _ := randomSystem(t, r)
		var queries [][]string
		for q := 0; q < 4; q++ {
			kws := make([]string, 1+r.Intn(3))
			for i := range kws {
				kws[i] = vocab[r.Intn(len(vocab))]
			}
			queries = append(queries, kws)
		}
		checkQueriesCached(t, sys, queries)
	}

	if testing.Short() {
		t.Skip("the DBLife levels take seconds")
	}
	var workload [][]string
	for _, q := range dblife.Workload() {
		workload = append(workload, q.Keywords)
	}
	for _, level := range []int{3, 5} {
		checkQueriesCached(t, dblifeSystem(t, level), workload)
	}
}

// TestBindingCacheAcrossWrites checks the key against writes: an INSERT
// that makes a keyword bind a relation it did not bind changes the key, so
// the next run misses and builds the new binding's entry; one that leaves
// every binding alone keeps the key, and the next run hits. Either way the
// output equals a fresh System's over the same engine.
func TestBindingCacheAcrossWrites(t *testing.T) {
	sys := productSystem(t)
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	// The binding, not the keywords, is the key: the two queries bind
	// different relations before and after the writes, and no binding of one
	// equals one of the other's.
	queries := [][]string{{"scented", "incense"}, {"scented", "checkered"}}
	fresh := func(kws []string, opts Options) Output {
		t.Helper()
		plain, err := NewSystem(sys.eng, sys.lat)
		if err != nil {
			t.Fatal(err)
		}
		out, err := plain.Debug(kws, opts)
		if err != nil {
			t.Fatal(err)
		}
		return normalized(out)
	}
	for _, kws := range queries {
		cacheCheck(t, sys, kws, Options{Strategy: SBH})
	}
	for _, w := range []struct {
		stmt string
		// rebinds is the query whose binding the INSERT changes, if any.
		rebinds []string
	}{
		// "incense" now occurs in Item too.
		{"INSERT INTO Item VALUES (6, 'cedar scented incense stick', 3, 3, 2, 2.49, 'slow burn')", queries[0]},
		// Item already holds "scented", "incense" and "checkered".
		{"INSERT INTO Item VALUES (7, 'pine scented checkered incense', 3, 2, 4, 4.49, 'tall')", nil},
	} {
		if _, err := sys.eng.Exec(w.stmt); err != nil {
			t.Fatal(err)
		}
		for _, kws := range queries {
			for _, strat := range allStrategies {
				for _, workers := range []int{1, 4} {
					opts := Options{Strategy: strat, Workers: workers}
					st := sys.BindingCacheStats()
					got := cacheCheck(t, sys, kws, opts)
					after := sys.BindingCacheStats()
					wantMiss := strat == allStrategies[0] && workers == 1 && reflect.DeepEqual(kws, w.rebinds)
					if missed := after.Misses > st.Misses; missed != wantMiss {
						t.Fatalf("after %q: %v %v workers=%d missed=%v, want %v",
							w.stmt, kws, strat, workers, missed, wantMiss)
					}
					if want := fresh(kws, opts); !reflect.DeepEqual(*got, want) {
						t.Fatalf("after %q: %v %v workers=%d differs from a fresh System\ngot:  %+v\nwant: %+v",
							w.stmt, kws, strat, workers, *got, want)
					}
				}
			}
		}
	}
}

// TestBindingCacheConcurrent debugs the same and different bindings on one
// System from several goroutines — every run after the first of a binding
// shares its entry — and requires each output to equal the serial run's.
// Run it under -race -count=10.
func TestBindingCacheConcurrent(t *testing.T) {
	queries := [][]string{
		{"saffron", "scented", "candle"},
		{"scented", "candle"},
		{"red", "candle"},
		{"vanilla", "oil"},
		{"floral", "pattern", "oil"},
	}
	serial := productSystem(t)
	want := make(map[string]Output)
	for _, kws := range queries {
		for _, strat := range allStrategies {
			out, err := serial.Debug(kws, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(kws, strat)] = normalized(out)
		}
	}

	sys, err := NewSystem(serial.eng, serial.lat)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Half the goroutines share one binding at a time; the rest
				// walk the queries from different offsets.
				kws := queries[(i/3)%len(queries)]
				if g%2 == 1 {
					kws = queries[(g+i)%len(queries)]
				}
				strat := allStrategies[(g+i)%len(allStrategies)]
				out, err := sys.Debug(kws, Options{Strategy: strat, Workers: 1 + g%3})
				if err != nil {
					errs <- err
					return
				}
				if got := normalized(out); !reflect.DeepEqual(got, want[fmt.Sprint(kws, strat)]) {
					errs <- fmt.Errorf("%s %v: concurrent output differs from the serial run", strings.Join(kws, " "), strat)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := sys.BindingCacheStats(); st.Entries != len(queries) || st.Hits == 0 {
		t.Errorf("binding cache after the storm: %+v, want one entry per query and hits", st)
	}
}
