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
// Then DBLife Q1 and Q6, one binding and two keyword tuples, run SBH from
// several goroutines on one System, and Q1 alone from every goroutine at
// once on a new one. Run it under -race -count=10.
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

	// DBLife Q1 and Q6 bind the same relations and take different SBH
	// paths, so their concurrent runs replay, and record into, one memo.
	lv5 := dblifeSystem(t, 5)
	var sbhQueries [][]string
	for _, q := range dblife.Workload() {
		if q.ID == "Q1" || q.ID == "Q6" {
			sbhQueries = append(sbhQueries, q.Keywords)
		}
	}
	for _, kws := range sbhQueries {
		plain, err := NewSystem(lv5.eng, lv5.lat)
		if err != nil {
			t.Fatal(err)
		}
		out, err := plain.Debug(kws, Options{Strategy: SBH})
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint(kws)] = normalized(out)
	}
	shared, err := NewSystem(lv5.eng, lv5.lat)
	if err != nil {
		t.Fatal(err)
	}
	shared.SetProbeCache(probecache.New(probecache.Config{}))
	errs = make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				kws := sbhQueries[(g+i)%len(sbhQueries)]
				out, err := shared.Debug(kws, Options{Strategy: SBH})
				if err != nil {
					errs <- err
					return
				}
				if got := normalized(out); !reflect.DeepEqual(got, want[fmt.Sprint(kws)]) {
					errs <- fmt.Errorf("%s SBH: concurrent output differs from a new System's", strings.Join(kws, " "))
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
	if st := shared.BindingCacheStats(); st.Entries != 1 {
		t.Errorf("Q1 and Q6 took %d binding entries, want one", st.Entries)
	}
	ph, err := shared.phase12(sbhQueries[0], true)
	if err != nil {
		t.Fatal(err)
	}
	if paths := ph.entry.sub.sbh.paths.Load(); paths == nil || len(*paths) != 2 {
		t.Errorf("SBH memo after the storm: %v, want the two queries' paths", paths)
	}
	if tables := ph.entry.sub.keyMemo.tables.Load(); tables == nil || len(*tables) != 2 {
		t.Errorf("key memo after the storm: %v, want the two queries' tables", tables)
	}

	// One tuple from every goroutine at once on a new System: the first
	// runs all miss the key memo and race to record the tuple's table, and
	// the memo keeps one.
	one, err := NewSystem(lv5.eng, lv5.lat)
	if err != nil {
		t.Fatal(err)
	}
	one.SetProbeCache(probecache.New(probecache.Config{}))
	start := make(chan struct{})
	errs = make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				out, err := one.Debug(sbhQueries[0], Options{Strategy: SBH})
				if err != nil {
					errs <- err
					return
				}
				if got := normalized(out); !reflect.DeepEqual(got, want[fmt.Sprint(sbhQueries[0])]) {
					errs <- fmt.Errorf("%s SBH: concurrent output differs from a new System's", strings.Join(sbhQueries[0], " "))
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ph, err = one.phase12(sbhQueries[0], true); err != nil {
		t.Fatal(err)
	}
	if tables := ph.entry.sub.keyMemo.tables.Load(); tables == nil || len(*tables) != 1 {
		t.Errorf("key memo after one tuple's storm: %v, want one table", tables)
	}
}

// checkKeyTables runs Debug and ReturnNothing on kws, so the sublattice of
// each subset's binding memoizes the key table of the tuple that ran on it
// while it has room, and requires every key of each subset's table, the
// memo's or a private one, to equal probecache.Key. It returns how many
// memoized tables it checked.
func checkKeyTables(t *testing.T, sys *System, kws []string) int {
	t.Helper()
	if _, err := sys.Debug(kws, Options{Strategy: SBH}); err != nil {
		t.Fatalf("%v: %v", kws, err)
	}
	if len(kws) > 1 {
		if _, err := sys.ReturnNothing(kws); err != nil {
			t.Fatalf("%v: ReturnNothing: %v", kws, err)
		}
	}
	checked := 0
	for _, subset := range subsets(kws) {
		ph, err := sys.phase12(subset, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(ph.nonKeywords) > 0 || ph.entry.sub == nil {
			continue
		}
		sub := ph.entry.sub
		tab := sub.keys(subset)
		if tab == sub.keyMemo.find(subset) {
			checked++
		}
		if len(tab.off) != sub.len()+1 {
			t.Fatalf("%v: table has %d keys for %d sub nodes", subset, len(tab.off)-1, sub.len())
		}
		for x := 0; x < sub.len(); x++ {
			n := sub.node(x)
			if got, want := tab.key(x), probecache.Key(n.Label, n.CopyMask, subset); got != want {
				t.Fatalf("%v: key of %s = %q, want %q", subset, sub.node(x), got, want)
			}
		}
	}
	return checked
}

// TestProbeKeyTable checks the probe-key tables against probecache.Key on
// Figure 2, random schemas and DBLife Q1-Q10 at levels 3 and 5: for the
// full keyword tuples Debug runs and for the subsets ReturnNothing submits,
// every sub node's key in its tuple's table is the key Key builds.
func TestProbeKeyTable(t *testing.T) {
	sys := productSystem(t)
	checked := 0
	for _, kws := range onlineCNQueries {
		checked += checkKeyTables(t, sys, kws)
	}

	r := rand.New(rand.NewSource(20261021))
	vocab := []string{"amber", "birch", "cedar", "dune", "ember", "flint", "grove", "haze"}
	for trial := 0; trial < 8; trial++ {
		rs, _ := randomSystem(t, r)
		for q := 0; q < 4; q++ {
			kws := make([]string, 1+r.Intn(3))
			for i := range kws {
				kws[i] = vocab[r.Intn(len(vocab))]
			}
			checked += checkKeyTables(t, rs, kws)
		}
	}

	if !testing.Short() {
		for _, level := range []int{3, 5} {
			lv, err := NewSystem(dblifeSystem(t, level).eng, dblifeSystem(t, level).lat)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range dblife.Workload() {
				checked += checkKeyTables(t, lv, q.Keywords)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no memoized key table checked")
	}
	t.Logf("%d memoized tables checked", checked)
}

// TestKeyMemoBound fills one sublattice's key memo with many keyword
// tuples. The memo's charge stays within the binding entry's size and is
// the sum of its tables' exact charges; once a tuple finds no room, it gets
// a private table with the same keys each time it runs, while the tuples
// recorded before keep reading theirs.
func TestKeyMemoBound(t *testing.T) {
	sys := productSystem(t)
	ph, err := sys.phase12([]string{"saffron", "scented", "candle"}, true)
	if err != nil {
		t.Fatal(err)
	}
	e := ph.entry
	m := &e.sub.keyMemo
	charged := func() int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.bytes
	}
	var recorded [][]string
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("the memo took 1,000 tuples without filling")
		}
		// The table does not depend on what the keywords bind.
		kws := []string{fmt.Sprintf("saffron%d", i), "scented", "candle"}
		tab := e.sub.keys(kws)
		for x := 0; x < e.sub.len(); x++ {
			n := e.sub.node(x)
			if tab.key(x) != probecache.Key(n.Label, n.CopyMask, kws) {
				t.Fatalf("tuple %d: key of %s differs from Key", i, e.sub.node(x))
			}
		}
		if got := charged(); got > e.size || got > e.sub.bytes() {
			t.Fatalf("after %d tuples the memo is charged %d bytes, over the entry's %d", i+1, got, e.size)
		}
		if m.find(kws) == tab {
			recorded = append(recorded, kws)
			continue
		}
		if len(recorded) == 0 {
			t.Fatal("the first tuple found no room")
		}
		if again := e.sub.keys(kws); again == tab || again.keys != tab.keys {
			t.Fatal("a tuple without room did not get a private table of the same keys")
		}
		break
	}
	total := 0
	for _, tab := range *m.tables.Load() {
		total += tab.bytes()
	}
	if total != charged() || len(*m.tables.Load()) != len(recorded) {
		t.Fatalf("memo charged %d bytes for %d tables, its tables sum to %d over %d",
			charged(), len(recorded), total, len(*m.tables.Load()))
	}
	for _, kws := range recorded {
		if e.sub.keys(kws) != m.find(kws) {
			t.Fatalf("recorded tuple %v no longer reads its table", kws)
		}
	}
}
