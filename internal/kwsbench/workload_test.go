package kwsbench

import (
	"reflect"
	"strings"
	"testing"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/lattice"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng, err := dblife.Generate(dblife.Config{Seed: dataSeed, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func mustLookup(t *testing.T, name string) Workload {
	t.Helper()
	w, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sequence(p *Plan, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = p.At(i)
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	const n = 3000
	for _, name := range []string{"debug-warm", "debug-longtail", "debug-writes"} {
		w := mustLookup(t, name)
		a := sequence(newPlan(w, 7, testEngine(t)), n)
		b := sequence(newPlan(w, 7, testEngine(t)), n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different request sequences", name)
		}
		c := sequence(newPlan(w, 8, testEngine(t)), n)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
	p := newPlan(mustLookup(t, "debug-longtail"), 7, testEngine(t))
	if len(p.queries) != poolSize {
		t.Errorf("long-tail pool has %d queries, want %d", len(p.queries), poolSize)
	}
	distinct := map[int]bool{}
	for _, r := range sequence(p, 6000) {
		distinct[r.Query] = true
	}
	if len(distinct) < 500 {
		t.Errorf("6000 Zipf draws hit only %d distinct queries", len(distinct))
	}
}

func TestWriteSequence(t *testing.T) {
	w := mustLookup(t, "debug-writes")
	p := newPlan(w, 3, testEngine(t))
	seq := sequence(p, p.Warmup()+800)
	for i, r := range seq[:p.Warmup()] {
		if r.Kind != Debug {
			t.Fatalf("warm-up request %d is a %s", i, r.Kind)
		}
	}
	writes, reads := 0, map[int]int{}
	for _, r := range seq[p.Warmup():] {
		if r.Kind == Write {
			writes++
		} else {
			reads[r.Query]++
		}
	}
	if writes != 100 {
		t.Errorf("got %d writes in 800 timed requests, want 100", writes)
	}
	for q := range p.queries {
		if reads[q] != 70 {
			t.Errorf("query %d read %d times in 700 reads, want 70", q, reads[q])
		}
	}
}

// TestWritesAnswerPreserving checks that every write targets a table its
// keyword already binds to, carries the keyword and a fresh key, and leaves
// every reference classification unchanged.
func TestWritesAnswerPreserving(t *testing.T) {
	eng := testEngine(t)
	sys, err := core.Build(eng, lattice.Options{MaxJoins: maxJoins, KeywordSlots: keywordSlots})
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(mustLookup(t, "debug-writes"), 1, eng)
	before := map[int]debugForm{}
	for q, kws := range p.queries {
		if before[q], err = debugReference(sys, kws); err != nil {
			t.Fatal(err)
		}
	}
	ix := eng.Index()
	seen := map[string]bool{}
	for i := 0; len(seen) < 40 && i < 4000; i++ {
		r := p.At(i)
		if r.Kind != Write {
			continue
		}
		bound := false
		for _, tbl := range ix.Tables(r.Keyword) {
			bound = bound || tbl == r.Table
		}
		if !bound {
			t.Fatalf("write %q targets %s, which %q does not bind to", r.SQL, r.Table, r.Keyword)
		}
		if !strings.Contains(r.SQL, "'"+r.Keyword+"'") {
			t.Fatalf("write %q does not carry its keyword %q", r.SQL, r.Keyword)
		}
		seen[r.Table+"/"+r.Keyword] = true
		if _, err := eng.Exec(r.SQL); err != nil {
			t.Fatalf("write %q: %v", r.SQL, err)
		}
	}
	if len(seen) < 10 {
		t.Errorf("writes covered only %d (table, keyword) targets", len(seen))
	}
	for q, kws := range p.queries {
		after, err := debugReference(sys, kws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before[q]) {
			t.Errorf("%v: classification changed after the writes", kws)
		}
	}
}
