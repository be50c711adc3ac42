package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"kwsdbg/internal/probecache"
)

// TestChaosWriteStorm hammers the debugger with concurrent INSERTs while
// warm cached runs are in flight (run under -race by `make chaos-writes`).
// Mid-storm runs must stay error-free — each sees some consistent prefix of
// the writes, with intersecting verdicts suspected and repaired rather than
// trusted stale. Once the storm quiesces, a cold run and warm repaired runs
// at every worker count must match a run on a new System exactly.
func TestChaosWriteStorm(t *testing.T) {
	sys := productSystem(t)
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	kws := []string{"saffron", "scented", "candle"}
	if _, err := sys.Debug(kws, Options{Strategy: SBH}); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	const writers, perWriter = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := 100 + w*perWriter + i
				var stmt string
				switch i % 3 {
				case 0:
					stmt = fmt.Sprintf(
						"INSERT INTO Item VALUES (%d, 'saffron scented candle %d', 2, 4, 1, 5.0, 'storm')", id, id)
				case 1:
					stmt = fmt.Sprintf("INSERT INTO Attr VALUES (%d, 'scent', 'storm%d')", id, id)
				default:
					stmt = fmt.Sprintf("INSERT INTO PType VALUES (%d, 'storm%d')", id, id)
				}
				if _, err := sys.Engine().Exec(stmt); err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	// Debug continuously while the storm runs: correctness mid-storm is
	// "no error, no panic, no race"; output identity is checked at quiesce.
	stormDone := make(chan struct{})
	go func() { wg.Wait(); close(stormDone) }()
	for running := true; running; {
		select {
		case <-stormDone:
			running = false
		default:
			if _, err := sys.Debug(kws, Options{Strategy: SBH, Workers: 4}); err != nil {
				t.Fatalf("mid-storm debug: %v", err)
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A new System over the same engine and lattice shares neither the
	// verdict cache nor the binding entry and its SBH memo.
	plain, err := NewSystem(sys.Engine(), sys.Lattice())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	fresh, err := plain.Debug(kws, Options{Strategy: SBH})
	if err != nil {
		t.Fatalf("new System's run at quiesce: %v", err)
	}
	want := normalized(fresh)
	cold, err := sys.Debug(kws, Options{Strategy: SBH, BypassCache: true})
	if err != nil {
		t.Fatalf("cold run at quiesce: %v", err)
	}
	if got := normalized(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold run diverges from a new System's run after storm\ngot:  %+v\nwant: %+v", got, want)
	}
	for _, workers := range []int{1, 4, 8} {
		warm, err := sys.Debug(kws, Options{Strategy: SBH, Workers: workers})
		if err != nil {
			t.Fatalf("warm run workers=%d at quiesce: %v", workers, err)
		}
		if got := normalized(warm); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: repaired warm run diverges from a new System's run after storm\ngot:  %+v\nwant: %+v",
				workers, got, want)
		}
	}
}

// TestChaosWriteStormSearch runs SearchPartial and Debug from several
// goroutines while INSERTs land (under -race by `make chaos-writes`). Search
// reads and writes the same verdict cache as Debug, so its stored verdicts
// must go suspect and be repaired like Debug's. Mid-storm calls must not
// fail; at quiesce, cached SearchPartial must equal SearchPartial on a
// cache-less System over the same engine, and warm Debug must equal a
// BypassCache run.
func TestChaosWriteStormSearch(t *testing.T) {
	sys := productSystem(t)
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	queries := [][]string{
		{"saffron", "scented", "candle"},
		{"saffron", "scented", "incense"},
		{"scented", "checkered"},
	}
	const writers, perWriter, readers = 3, 12, 3
	// Writers wait until every reader has finished one round, so the storm
	// lands on warm caches and overlaps in-flight reads.
	var warmed sync.WaitGroup
	warmed.Add(readers)
	warm := make(chan struct{})
	go func() { warmed.Wait(); close(warm) }()
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-warm
			for i := 0; i < perWriter; i++ {
				id := 100 + w*perWriter + i
				var stmt string
				switch i % 4 {
				case 0:
					stmt = fmt.Sprintf(
						"INSERT INTO Item VALUES (%d, 'saffron scented candle %d', 2, 4, 1, 5.0, 'storm')", id, id)
				case 1:
					// Revives "saffron scented incense" through Color 4 and
					// PType 3.
					stmt = fmt.Sprintf("INSERT INTO Item VALUES (%d, 'scented %d', 3, 4, 0, 1.0, 'storm')", id, id)
				case 2:
					stmt = fmt.Sprintf("INSERT INTO Attr VALUES (%d, 'pattern', 'checkered %d')", id, id)
				default:
					stmt = fmt.Sprintf("INSERT INTO PType VALUES (%d, 'storm%d')", id, id)
				}
				if _, err := sys.Engine().Exec(stmt); err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	stormDone := make(chan struct{})
	go func() { wg.Wait(); close(stormDone) }()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var once sync.Once
			defer once.Do(warmed.Done)
			for i := r; ; i++ {
				if i-r == len(queries) {
					once.Do(warmed.Done)
				}
				select {
				case <-stormDone:
					return
				default:
				}
				kws := queries[i%len(queries)]
				if _, _, _, err := sys.SearchPartial(kws, 5); err != nil {
					errs <- fmt.Errorf("reader %d mid-storm SearchPartial %v: %w", r, kws, err)
					return
				}
				if _, err := sys.Debug(kws, Options{Strategy: SBH}); err != nil {
					errs <- fmt.Errorf("reader %d mid-storm Debug %v: %w", r, kws, err)
					return
				}
			}
		}(r)
	}
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	plain, err := NewSystem(sys.Engine(), sys.Lattice())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	for _, kws := range queries {
		type partialOut struct {
			Full    []SearchResult
			Partial []PartialResult
			Missing []string
		}
		var got, want partialOut
		if got.Full, got.Partial, got.Missing, err = sys.SearchPartial(kws, 10); err != nil {
			t.Fatalf("cached SearchPartial %v at quiesce: %v", kws, err)
		}
		if want.Full, want.Partial, want.Missing, err = plain.SearchPartial(kws, 10); err != nil {
			t.Fatalf("cache-less SearchPartial %v at quiesce: %v", kws, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: cached SearchPartial diverges from a cache-less System after the storm\ngot:  %+v\nwant: %+v",
				kws, got, want)
		}
		cold, err := sys.Debug(kws, Options{Strategy: SBH, BypassCache: true})
		if err != nil {
			t.Fatalf("cold Debug %v at quiesce: %v", kws, err)
		}
		warm, err := sys.Debug(kws, Options{Strategy: SBH})
		if err != nil {
			t.Fatalf("warm Debug %v at quiesce: %v", kws, err)
		}
		if !reflect.DeepEqual(normalized(warm), normalized(cold)) {
			t.Fatalf("%v: warm Debug diverges from a BypassCache run after the storm\ngot:  %+v\nwant: %+v",
				kws, normalized(warm), normalized(cold))
		}
	}
}

// TestChaosBindingStorm lands INSERTs that make query keywords bind
// relations they did not bind while readers debug and search (under -race
// by `make chaos-writes`). Each new binding keys a new per-binding cache
// entry, built while other runs read the old ones. Mid-storm runs must not
// fail; at quiesce every output must equal a fresh System's over the same
// engine, at every strategy and worker count.
func TestChaosBindingStorm(t *testing.T) {
	sys := productSystem(t)
	sys.SetProbeCache(probecache.New(probecache.Config{}))
	queries := [][]string{
		{"saffron", "scented", "candle"},
		{"scented", "incense"},
		{"vanilla", "checkered"},
		{"floral", "oil"},
	}
	const writers, perWriter, readers = 2, 16, 3
	// Writers wait until every reader has run each query once, so the storm
	// rebinds keywords whose old bindings are cached.
	var warmed sync.WaitGroup
	warmed.Add(readers)
	warm := make(chan struct{})
	go func() { warmed.Wait(); close(warm) }()
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-warm
			for i := 0; i < perWriter; i++ {
				id := 200 + w*perWriter + i
				var stmt string
				switch i % 4 {
				case 0: // "scented" and "candle" reach PType
					stmt = fmt.Sprintf("INSERT INTO PType VALUES (%d, 'scented candle %d')", id, id)
				case 1: // "incense" and "vanilla" reach Color
					stmt = fmt.Sprintf("INSERT INTO Color VALUES (%d, 'incense grey', 'vanilla %d')", id, id)
				case 2: // "oil" and "candle" reach Attr
					stmt = fmt.Sprintf("INSERT INTO Attr VALUES (%d, 'finish', 'oil candle %d')", id, id)
				default: // "floral" and "saffron" reach Item's text
					stmt = fmt.Sprintf("INSERT INTO Item VALUES (%d, 'floral incense %d', 3, 4, 3, 2.0, 'saffron oil')", id, id)
				}
				if _, err := sys.Engine().Exec(stmt); err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	stormDone := make(chan struct{})
	go func() { wg.Wait(); close(stormDone) }()
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			var once sync.Once
			defer once.Do(warmed.Done)
			for i := r; ; i++ {
				if i-r == len(queries) {
					once.Do(warmed.Done)
				}
				select {
				case <-stormDone:
					return
				default:
				}
				kws := queries[i%len(queries)]
				opts := Options{Strategy: allStrategies[i%len(allStrategies)], Workers: 1 + 3*(i%2)}
				if _, err := sys.Debug(kws, opts); err != nil {
					errs <- fmt.Errorf("reader %d mid-storm Debug %v: %w", r, kws, err)
					return
				}
				if _, _, _, err := sys.SearchPartial(kws, 5); err != nil {
					errs <- fmt.Errorf("reader %d mid-storm SearchPartial %v: %w", r, kws, err)
					return
				}
			}
		}(r)
	}
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	plain, err := NewSystem(sys.Engine(), sys.Lattice())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	for _, kws := range queries {
		for _, strat := range allStrategies {
			for _, workers := range []int{1, 4} {
				opts := Options{Strategy: strat, Workers: workers}
				got, err := sys.Debug(kws, opts)
				if err != nil {
					t.Fatalf("%v %v at quiesce: %v", kws, strat, err)
				}
				want, err := plain.Debug(kws, opts)
				if err != nil {
					t.Fatalf("fresh %v %v at quiesce: %v", kws, strat, err)
				}
				if !reflect.DeepEqual(normalized(got), normalized(want)) {
					t.Fatalf("%v %v workers=%d: output after the binding storm differs from a fresh System\ngot:  %+v\nwant: %+v",
						kws, strat, workers, normalized(got), normalized(want))
				}
			}
		}
		gotFull, gotPartial, _, err := sys.SearchPartial(kws, 10)
		if err != nil {
			t.Fatal(err)
		}
		wantFull, wantPartial, _, err := plain.SearchPartial(kws, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFull, wantFull) || !reflect.DeepEqual(gotPartial, wantPartial) {
			t.Fatalf("%v: SearchPartial after the binding storm differs from a fresh System", kws)
		}
	}
	if st := sys.BindingCacheStats(); st.Entries <= len(queries) {
		t.Errorf("binding cache holds %d entries for %d queries: the storm rebound no keyword", st.Entries, len(queries))
	}
}
