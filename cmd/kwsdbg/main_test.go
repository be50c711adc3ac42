package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kwsdbg/internal/core"
)

func TestParseStrategy(t *testing.T) {
	good := map[string]core.Strategy{
		"BU": core.BU, "td": core.TD, "BuWr": core.BUWR,
		"TDWR": core.TDWR, "sbh": core.SBH, "RE": core.RE,
	}
	for in, want := range good {
		got, err := parseStrategy(in)
		if err != nil || got != want {
			t.Errorf("parseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseStrategy("nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestLoadDataset(t *testing.T) {
	eng, err := loadDataset("figure2", 0, 0)
	if err != nil || eng.Database().TotalRows() == 0 {
		t.Fatalf("figure2: %v", err)
	}
	eng, err = loadDataset("dblife", 0.01, 1)
	if err != nil || eng.Database().TotalRows() == 0 {
		t.Fatalf("dblife: %v", err)
	}
	if _, err := loadDataset("/no/such/file.sql", 0, 0); err == nil {
		t.Error("missing script accepted")
	}
	// A SQL script on disk works too.
	script := filepath.Join(t.TempDir(), "db.sql")
	if err := os.WriteFile(script, []byte("CREATE TABLE t (id INT PRIMARY KEY, s TEXT); INSERT INTO t VALUES (1, 'hello')"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err = loadDataset(script, 0, 0)
	if err != nil || eng.Database().TotalRows() != 1 {
		t.Fatalf("script dataset: %v", err)
	}
}

func TestObtainLatticeCache(t *testing.T) {
	eng, err := loadDataset("figure2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(t.TempDir(), "lat.gob")
	c := config{maxJoins: 1, slots: 2, cachePath: cache}
	lat1, err := obtainLattice(eng, c)
	if err != nil {
		t.Fatalf("generate+save: %v", err)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("cache not written: %v", err)
	}
	lat2, err := obtainLattice(eng, c)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if lat1.Len() != lat2.Len() {
		t.Errorf("cache round trip: %d vs %d nodes", lat1.Len(), lat2.Len())
	}
	// A cache built with different options is rejected.
	c2 := config{maxJoins: 2, slots: 2, cachePath: cache}
	if _, err := obtainLattice(eng, c2); err == nil {
		t.Error("mismatched cache accepted")
	}
}

// TestREPLSession drives the REPL over Figure 2 with BU: a query's first run
// counts the probes Debug does, a pin re-runs with every verdict from the
// verdict cache, and :reset re-probes. The REPL's lines share one cache: the
// query retyped after :reset re-probes only what the pinned re-run left
// unproved, typed once more it issues no probe, and a query sharing
// sub-queries with it issues fewer probes than it makes.
func TestREPLSession(t *testing.T) {
	eng, err := loadDataset("figure2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := obtainLattice(eng, config{maxJoins: 2, slots: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(eng, lat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Debug([]string{"saffron", "scented", "candle"}, core.Options{Strategy: core.BU})
	if err != nil {
		t.Fatal(err)
	}
	q1 := -1
	for _, na := range want.NonAnswers {
		if na.Query.Tree == "Color#1-Item#2-PType#3" {
			q1 = na.Query.NodeID
		}
	}
	if q1 < 0 {
		t.Fatalf("q1 not among the non-answers of %+v", want.NonAnswers)
	}

	var outs []*core.Output
	in := strings.NewReader(fmt.Sprintf("saffron scented candle\n:pin %d alive\n:reset\n"+
		"saffron scented candle\nsaffron scented candle\nsaffron scented\n", q1))
	if err := interact(in, sys, core.BU, func(out *core.Output) { outs = append(outs, out) }); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 6 {
		t.Fatalf("REPL emitted %d outputs, want 6", len(outs))
	}
	if got := outs[0].Stats.SQLExecuted; got != want.Stats.SQLExecuted {
		t.Errorf("first run counts %d probes, Debug %d", got, want.Stats.SQLExecuted)
	}
	if got := outs[1].Stats.SQLIssued(); got != 0 {
		t.Errorf(":pin re-run issued %d probes, want 0", got)
	}
	if got := outs[2].Stats.SQLIssued(); got == 0 {
		t.Error(":reset re-run issued no probes")
	}
	if got, first := outs[3].Stats.SQLIssued(), outs[0].Stats.SQLIssued(); got >= first {
		t.Errorf("query retyped after :reset issued %d probes, its first run %d; the pinned re-run's verdicts went unused", got, first)
	}
	if got := outs[4].Stats.SQLIssued(); got != 0 {
		t.Errorf("retyped query issued %d probes, want 0", got)
	}
	if st := outs[5].Stats; st.SQLIssued() >= st.SQLExecuted {
		t.Errorf("saffron scented issued %d of %d probes; its shared sub-queries were already proved", st.SQLIssued(), st.SQLExecuted)
	}
}
