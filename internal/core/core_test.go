package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kwsdbg/internal/dblife"
	"kwsdbg/internal/figure2"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/storage"
)

// productSystem builds the Figure 2 debugger with a 2-join lattice, enough
// for the paper's Example 1.
func productSystem(t *testing.T) *System {
	t.Helper()
	eng, err := figure2.Engine()
	if err != nil {
		t.Fatalf("figure2.Engine: %v", err)
	}
	sys, err := Build(eng, lattice.Options{MaxJoins: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sys
}

// trees extracts the sorted tree renderings of a query list.
func trees(qs []QueryInfo) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.Tree
	}
	sort.Strings(out)
	return out
}

// TestExample1 reproduces the paper's running example end to end: the query
// "saffron scented candle" has exactly the two candidate networks q1 and q2,
// both dead, with exactly the MPANs the paper says the system displays.
func TestExample1(t *testing.T) {
	sys := productSystem(t)
	for _, strat := range append(append([]Strategy{}, Strategies...), RE) {
		t.Run(strat.String(), func(t *testing.T) {
			out, err := sys.Debug([]string{"saffron", "scented", "candle"}, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("Debug: %v", err)
			}
			if len(out.NonKeywords) != 0 {
				t.Fatalf("NonKeywords = %v", out.NonKeywords)
			}
			// Besides the paper's q1 and q2, the system discovers the other
			// candidate networks of this keyword query: items matching
			// "saffron" and items matching "scented" can also connect
			// through a shared product type, color, or attribute with items
			// matching "candle". Exactly one of those is alive.
			if got := trees(out.Answers); !reflect.DeepEqual(got, []string{"Item#1-Item#2-PType#3"}) {
				t.Fatalf("Answers = %v", got)
			}
			if got := len(out.NonAnswers); got != 4 {
				t.Fatalf("NonAnswers = %d (%v)", got, out.NonAnswers)
			}
			byTree := map[string][]string{}
			for _, na := range out.NonAnswers {
				byTree[na.Query.Tree] = trees(na.MPANs)
			}
			// q1: find scented candles whose color is saffron. The paper
			// says its MPANs are "P_candle JOIN I_scented" and "C_saffron".
			q1 := "Color#1-Item#2-PType#3"
			if got, want := byTree[q1], []string{"Color#1", "Item#2-PType#3"}; !reflect.DeepEqual(got, want) {
				t.Errorf("MPANs(q1) = %v, want %v (have %v)", got, want, byTree)
			}
			// q2: find scented candles whose scent is saffron; MPANs are
			// "P_candle JOIN I_scented" and "I_scented JOIN A_saffron".
			q2 := "Attr#1-Item#2-PType#3"
			if got, want := byTree[q2], []string{"Attr#1-Item#2", "Item#2-PType#3"}; !reflect.DeepEqual(got, want) {
				t.Errorf("MPANs(q2) = %v, want %v", got, want)
			}
			// The color-shared and attribute-shared interpretations die too.
			q3 := "Color#1-Item#2-Item#3"
			if got, want := byTree[q3], []string{"Color#1", "Item#2", "Item#3"}; !reflect.DeepEqual(got, want) {
				t.Errorf("MPANs(q3) = %v, want %v", got, want)
			}
			q4 := "Attr#1-Item#2-Item#3"
			if got, want := byTree[q4], []string{"Attr#1-Item#2", "Item#3"}; !reflect.DeepEqual(got, want) {
				t.Errorf("MPANs(q4) = %v, want %v", got, want)
			}
			if out.Stats.MTNs != 5 {
				t.Errorf("MTNs = %d, want 5", out.Stats.MTNs)
			}
			if out.Stats.SQLExecuted == 0 && strat != BU {
				t.Errorf("no SQL executed")
			}
		})
	}
}

// TestExample1AfterSynonymFix applies the paper's motivating repair — add
// "saffron" as a synonym of yellow — and checks that q1 comes alive.
func TestExample1AfterSynonymFix(t *testing.T) {
	sys := productSystem(t)
	if _, err := sys.Engine().Exec(
		"INSERT INTO Color VALUES (5, 'sunset yellow', 'saffron, gold')"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	// Make the vanilla scented candle sunset-yellow so the join succeeds.
	if _, err := sys.Engine().Exec(
		"INSERT INTO Item VALUES (5, 'marigold scented candle', 2, 5, 2, 6.49, 'hand-poured.')"); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	out, err := sys.Debug([]string{"saffron", "scented", "candle"}, Options{Strategy: SBH})
	if err != nil {
		t.Fatalf("Debug: %v", err)
	}
	var answers []string
	for _, a := range out.Answers {
		answers = append(answers, a.Tree)
	}
	found := false
	for _, a := range answers {
		if a == "Color#1-Item#2-PType#3" {
			found = true
		}
	}
	if !found {
		t.Errorf("q1 still dead after synonym fix; answers = %v, non-answers = %d",
			answers, len(out.NonAnswers))
	}
}

func TestTwoKeywordQuery(t *testing.T) {
	sys := productSystem(t)
	out, err := sys.Debug([]string{"red", "candle"}, Options{Strategy: TDWR})
	if err != nil {
		t.Fatalf("Debug: %v", err)
	}
	// red binds to Color and Item; candle binds to PType and Item. The MTNs
	// include the paper's C_red JOIN I_0 JOIN P_candle at level 3 and the
	// direct level-2 interpretations.
	at := trees(out.Answers)
	wantAlive := []string{
		"Color#1-Item#0-PType#2", // red color, any item, candle type: items 3, 4
		"Color#1-Item#2",         // red-colored items whose text has candle
		"Item#1-PType#2",         // items with red in text that are candles
	}
	for _, w := range wantAlive {
		found := false
		for _, a := range at {
			if a == w {
				found = true
			}
		}
		if !found {
			t.Errorf("expected answer %s missing; answers = %v", w, at)
		}
	}
	if len(out.NonAnswers) == 0 {
		t.Log("no dead MTNs for red candle (acceptable: all interpretations alive)")
	}
}

func TestSingleKeyword(t *testing.T) {
	sys := productSystem(t)
	out, err := sys.Debug([]string{"saffron"}, Options{Strategy: BUWR})
	if err != nil {
		t.Fatalf("Debug: %v", err)
	}
	// saffron occurs in Color, Attr, and Item: three level-1 MTNs, all alive.
	if got := trees(out.Answers); !reflect.DeepEqual(got, []string{"Attr#1", "Color#1", "Item#1"}) {
		t.Errorf("answers = %v", got)
	}
	if len(out.NonAnswers) != 0 {
		t.Errorf("non-answers = %v", out.NonAnswers)
	}
	if out.Stats.SQLExecuted != 0 {
		t.Errorf("single-keyword run executed %d SQL queries; base nodes need none", out.Stats.SQLExecuted)
	}
}

func TestNonKeyword(t *testing.T) {
	sys := productSystem(t)
	out, err := sys.Debug([]string{"zzz", "candle"}, Options{Strategy: SBH})
	if err != nil {
		t.Fatalf("Debug: %v", err)
	}
	if !reflect.DeepEqual(out.NonKeywords, []string{"zzz"}) {
		t.Errorf("NonKeywords = %v", out.NonKeywords)
	}
	if len(out.Answers) != 0 || len(out.NonAnswers) != 0 {
		t.Error("results produced despite missing keyword")
	}
}

func TestDebugErrors(t *testing.T) {
	sys := productSystem(t)
	if _, err := sys.Debug(nil, Options{}); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := sys.Debug([]string{"a", "b", "c", "d"}, Options{}); err == nil {
		t.Error("4 keywords accepted with 3 slots")
	}
	if _, err := sys.Debug([]string{"candle"}, Options{Pa: 1.5}); err == nil {
		t.Error("pa=1.5 accepted")
	}
	if _, err := sys.Debug([]string{"candle"}, Options{Strategy: Strategy(42)}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{BU: "BU", TD: "TD", BUWR: "BUWR", TDWR: "TDWR", SBH: "SBH"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if !strings.Contains(Strategy(9).String(), "9") {
		t.Errorf("unknown strategy = %q", Strategy(9).String())
	}
}

// canonical reduces an Output to a comparable structure.
func canonical(out *Output) map[string][]string {
	m := map[string][]string{}
	for _, a := range out.Answers {
		m["alive:"+a.Tree] = nil
	}
	for _, na := range out.NonAnswers {
		m["dead:"+na.Query.Tree] = trees(na.MPANs)
	}
	return m
}

// TestStrategyEquivalence is the paper's implicit correctness claim: all
// five traversal strategies and the Return Everything baseline compute the
// same answers, non-answers, and MPAN sets; they differ only in SQL effort.
func TestStrategyEquivalence(t *testing.T) {
	sys := productSystem(t)
	queries := [][]string{
		{"saffron", "scented", "candle"},
		{"red", "candle"},
		{"scented", "candle"},
		{"saffron", "candle"},
		{"saffron", "scented"},
		{"vanilla", "oil"},
		{"pink", "incense"},
		{"checkered", "scent"},
		{"crimson"},
		{"orange", "burns"},
		{"floral", "pattern", "oil"},
		{"2pck", "candle"},
		{"yellow", "scented", "oil"},
	}
	for _, kws := range queries {
		t.Run(strings.Join(kws, "_"), func(t *testing.T) {
			ref, err := sys.Debug(kws, Options{Strategy: RE})
			if err != nil {
				t.Fatalf("RE: %v", err)
			}
			want := canonical(ref)
			counts := map[Strategy]int{RE: ref.Stats.SQLExecuted}
			for _, strat := range Strategies {
				out, err := sys.Debug(kws, Options{Strategy: strat})
				if err != nil {
					t.Fatalf("%v: %v", strat, err)
				}
				if got := canonical(out); !reflect.DeepEqual(got, want) {
					t.Errorf("%v diverges:\ngot:  %v\nwant: %v", strat, got, want)
				}
				counts[strat] = out.Stats.SQLExecuted
			}
			// Reuse never increases effort, and no strategy probes a node
			// twice that RE probes once — except the no-reuse pair, which
			// re-probe shared descendants.
			if counts[BUWR] > counts[BU] {
				t.Errorf("BUWR executed %d > BU %d", counts[BUWR], counts[BU])
			}
			if counts[TDWR] > counts[TD] {
				t.Errorf("TDWR executed %d > TD %d", counts[TDWR], counts[TD])
			}
			for _, s := range []Strategy{BUWR, TDWR, SBH} {
				if counts[s] > counts[RE] {
					t.Errorf("%v executed %d > RE %d", s, counts[s], counts[RE])
				}
			}
		})
	}
}

// TestMPANSemantics checks Phase 3 against a from-scratch reference: probe
// every node directly, then compute maximal alive descendants set-wise. It
// runs every strategy on Figure 2's Example 1 query and on DBLife Q1-Q10 at
// level 3.
func TestMPANSemantics(t *testing.T) {
	product := productSystem(t)
	t.Run("figure2", func(t *testing.T) {
		checkMPANSemantics(t, product, []string{"saffron", "scented", "candle"})
	})
	dbl := dblifeSystem(t, 3)
	for _, q := range dblife.Workload() {
		t.Run(q.ID, func(t *testing.T) { checkMPANSemantics(t, dbl, q.Keywords) })
	}
}

// checkMPANSemantics runs kws under every strategy and checks each Output
// against §2's definitions, evaluated node by node through the engine.
func checkMPANSemantics(t *testing.T, sys *System, kws []string) {
	lat := sys.Lattice()
	// Reference aliveness: run every node's existence query directly.
	aliveMemo := map[int]bool{}
	var isAlive func(id int) bool
	isAlive = func(id int) bool {
		if v, ok := aliveMemo[id]; ok {
			return v
		}
		sel, err := lat.Select(lat.Node(id), kws, true)
		if err != nil {
			t.Fatalf("Select: %v", err)
		}
		res, err := sys.Engine().Select(sel)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		aliveMemo[id] = len(res.Rows) > 0
		return aliveMemo[id]
	}
	var descOf func(id int, acc map[int]bool)
	descOf = func(id int, acc map[int]bool) {
		for _, c := range lat.Node(id).Children {
			if !acc[c] {
				acc[c] = true
				descOf(c, acc)
			}
		}
	}
	for _, strat := range allStrategies {
		out, err := sys.Debug(kws, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: Debug: %v", strat, err)
		}
		for _, na := range out.NonAnswers {
			m := na.Query.NodeID
			if isAlive(m) {
				t.Errorf("%v: reported non-answer %s is alive", strat, na.Query.Tree)
			}
			desc := map[int]bool{}
			descOf(m, desc)
			var wantMPANs []string
			for d := range desc {
				if !isAlive(d) {
					continue
				}
				// Maximal: no alive strict ancestor within desc.
				maximal := true
				anc := map[int]bool{}
				for e := range desc {
					da := map[int]bool{}
					descOf(e, da)
					if da[d] {
						anc[e] = true
					}
				}
				for a := range anc {
					if isAlive(a) {
						maximal = false
					}
				}
				if maximal {
					wantMPANs = append(wantMPANs, lat.Node(d).String())
				}
			}
			sort.Strings(wantMPANs)
			if got := trees(na.MPANs); !reflect.DeepEqual(got, wantMPANs) {
				t.Errorf("%v: MPANs(%s) = %v, want %v", strat, na.Query.Tree, got, wantMPANs)
			}
		}
		for _, a := range out.Answers {
			if !isAlive(a.NodeID) {
				t.Errorf("%v: reported answer %s is dead", strat, a.Tree)
			}
		}
	}
}

func TestReturnNothingBaseline(t *testing.T) {
	sys := productSystem(t)
	stats, err := sys.ReturnNothing([]string{"saffron", "scented", "candle"})
	if err != nil {
		t.Fatalf("ReturnNothing: %v", err)
	}
	if stats.KeywordQueries != 7 {
		t.Errorf("KeywordQueries = %d, want 7", stats.KeywordQueries)
	}
	if stats.SQLExecuted == 0 {
		t.Error("RN executed no SQL")
	}
	if _, err := sys.ReturnNothing(nil); err == nil {
		t.Error("empty RN accepted")
	}
	if _, err := sys.ReturnNothing(make([]string, 25)); err == nil {
		t.Error("25-keyword RN accepted")
	}
	// A query with a missing keyword still submits the sub-queries that
	// omit it.
	stats, err = sys.ReturnNothing([]string{"zzz", "candle"})
	if err != nil {
		t.Fatalf("ReturnNothing: %v", err)
	}
	if stats.KeywordQueries != 3 {
		t.Errorf("KeywordQueries = %d, want 3", stats.KeywordQueries)
	}
}

func TestResultsFetch(t *testing.T) {
	sys := productSystem(t)
	out, err := sys.Debug([]string{"scented", "candle"}, Options{Strategy: SBH})
	if err != nil {
		t.Fatalf("Debug: %v", err)
	}
	if len(out.Answers) == 0 {
		t.Fatal("no answers")
	}
	cols, rows, err := sys.Results(out.Answers[0].NodeID, out.Keywords, 10)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if len(cols) == 0 || len(rows) == 0 {
		t.Errorf("cols=%v rows=%d", cols, len(rows))
	}
}

func TestStatsReusePercent(t *testing.T) {
	s := Stats{DescTotal: 100, DescUnique: 40}
	if got := s.ReusePercent(); got != 60 {
		t.Errorf("ReusePercent = %v", got)
	}
	if got := (Stats{}).ReusePercent(); got != 0 {
		t.Errorf("empty ReusePercent = %v", got)
	}
}

func TestBuildSchemaMismatch(t *testing.T) {
	eng1, _ := figure2.Engine()
	eng2, _ := figure2.Engine()
	lat, err := lattice.Generate(eng1.Database().Schema(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(eng2, lat); err == nil {
		t.Error("cross-schema system accepted")
	}
}

// TestSystemCollected: a dropped System must not pin its engine. The
// System's sql.DB is held by database/sql's connection goroutine until it is
// closed, so the System closes it when it becomes unreachable.
func TestSystemCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		sys := productSystem(t)
		// The engine sits in cycles through its cached plans, and a
		// finalizer never runs on an object inside a cycle; its storage is
		// reachable only through the engine and holds no pointer back.
		runtime.SetFinalizer(sys.eng.Database(), func(*storage.Database) { close(collected) })
		if _, err := sys.Debug([]string{"saffron", "scented", "candle"}, Options{Strategy: SBH, TextProbes: true}); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped System's engine is still reachable")
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.set(i)
	}
	if b.count() != 4 {
		t.Errorf("count = %d", b.count())
	}
	if !b.has(64) || b.has(65) {
		t.Error("membership broken")
	}
	b.clear(64)
	if b.has(64) || b.count() != 3 {
		t.Error("clear broken")
	}
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 63, 129}) {
		t.Errorf("forEach = %v", got)
	}
}

func TestSublatticeShape(t *testing.T) {
	sys := productSystem(t)
	ph, err := sys.phase12([]string{"saffron", "scented", "candle"}, false)
	if err != nil {
		t.Fatal(err)
	}
	sub := buildSublattice(sys.lat, ph.mtnIDs)
	if len(sub.mtns) != 5 {
		t.Fatalf("mtns = %d", len(sub.mtns))
	}
	// Index order is level order.
	for i := 1; i < sub.len(); i++ {
		if sub.level[i] < sub.level[i-1] {
			t.Fatalf("levels not monotone at %d", i)
		}
	}
	// desc/asc are mutually consistent.
	for x := 0; x < sub.len(); x++ {
		for _, d := range sub.desc.row(x) {
			found := false
			for _, a := range sub.asc.row(int(d)) {
				if int(a) == x {
					found = true
				}
			}
			if !found {
				t.Fatalf("asc(%d) missing %d", d, x)
			}
		}
	}
	// regions[x] counts the MTNs whose Desc+ holds x.
	for x := 0; x < sub.len(); x++ {
		want := 0
		for _, m := range sub.mtns {
			in := m == x
			for _, d := range sub.desc.row(m) {
				in = in || int(d) == x
			}
			if in {
				want++
			}
		}
		if got := int(sub.regions[x]); got != want {
			t.Fatalf("regions[%d] = %d, want %d", x, got, want)
		}
	}
	total, unique := sub.descendantStats()
	if total < unique || unique == 0 {
		t.Errorf("descendantStats = %d, %d", total, unique)
	}
}

// TestInferenceSavesSQL asserts the with-reuse property the paper measures:
// shared descendants across the two Example 1 MTNs are probed once.
func TestInferenceSavesSQL(t *testing.T) {
	sys := productSystem(t)
	kws := []string{"saffron", "scented", "candle"}
	bu, err := sys.Debug(kws, Options{Strategy: BU})
	if err != nil {
		t.Fatal(err)
	}
	buwr, err := sys.Debug(kws, Options{Strategy: BUWR})
	if err != nil {
		t.Fatal(err)
	}
	// Both MTNs share the descendant Item#2-PType#3 (scented candles): BU
	// probes it twice, BUWR once.
	if bu.Stats.SQLExecuted <= buwr.Stats.SQLExecuted {
		t.Errorf("BU=%d BUWR=%d: reuse saved nothing on overlapping MTNs",
			bu.Stats.SQLExecuted, buwr.Stats.SQLExecuted)
	}
}

func TestOracleErrorPropagates(t *testing.T) {
	sys := productSystem(t)
	ph, err := sys.phase12([]string{"saffron", "scented", "candle"}, false)
	if err != nil {
		t.Fatal(err)
	}
	sub := buildSublattice(sys.lat, ph.mtnIDs)
	oracle := &failingOracle{}
	for _, strat := range []Strategy{BU, TD, BUWR, TDWR, SBH, RE} {
		gov := newGovernor(context.Background(), context.Background(), 0)
		_, _, err := sys.traverse(context.Background(), sub, oracle, seed{baseAlive: sys.baseAliveFunc()}, Options{Strategy: strat, Pa: 0.5}, 1, gov)
		if err == nil {
			t.Errorf("%v swallowed the oracle error", strat)
		}
	}
}

type failingOracle struct{}

func (f *failingOracle) IsAlive(int) (bool, error) { return false, fmt.Errorf("boom") }

func TestMPANPresentationOrder(t *testing.T) {
	sys := productSystem(t)
	out, err := sys.Debug([]string{"saffron", "scented", "candle"}, Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	for _, na := range out.NonAnswers {
		for i := 1; i < len(na.MPANs); i++ {
			if na.MPANs[i].Level > na.MPANs[i-1].Level {
				t.Errorf("%s: MPANs not sorted most-specific-first: %v then %v",
					na.Query.Tree, na.MPANs[i-1], na.MPANs[i])
			}
		}
	}
}

func TestRankAnswers(t *testing.T) {
	sys := productSystem(t)
	out, err := sys.Debug([]string{"scented", "candle"}, Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := sys.RankAnswers(out)
	if err != nil {
		t.Fatalf("RankAnswers: %v", err)
	}
	if len(ranked) != len(out.Answers) {
		t.Fatalf("ranked %d of %d answers", len(ranked), len(out.Answers))
	}
	for i := 1; i < len(ranked); i++ {
		prev, cur := ranked[i-1], ranked[i]
		if cur.Query.Level < prev.Query.Level {
			t.Errorf("rank %d: level %d after %d", i, cur.Query.Level, prev.Query.Level)
		}
		if cur.Query.Level == prev.Query.Level && cur.Results > prev.Results {
			t.Errorf("rank %d: results %d after %d at same level", i, cur.Results, prev.Results)
		}
	}
	for _, r := range ranked {
		if r.Results == 0 {
			t.Errorf("answer %s ranked with zero results", r.Query.Tree)
		}
	}
}

// TestOnlineCNsMatchLattice cross-validates phases 1-2 against classical
// online candidate-network generation: both must produce exactly the same
// candidate networks (by canonical label), on the product schema and on
// DBLife's Q1-Q10 at level 3.
func TestOnlineCNsMatchLattice(t *testing.T) {
	sys := productSystem(t)
	checkOnlineCNs(t, sys, onlineCNQueries)
	// Missing keywords short-circuit.
	res, err := sys.OnlineCandidateNetworks([]string{"zzz", "candle"})
	if err != nil || len(res.MTNLabels) != 0 {
		t.Errorf("missing keyword: %v, %v", res, err)
	}
	var workload [][]string
	for _, q := range dblife.Workload() {
		workload = append(workload, q.Keywords)
	}
	checkOnlineCNs(t, dblifeSystem(t, 3), workload)
}

func checkOnlineCNs(t *testing.T, sys *System, queries [][]string) {
	t.Helper()
	for _, kws := range queries {
		online, err := sys.OnlineCandidateNetworks(kws)
		if err != nil {
			t.Fatalf("%v: %v", kws, err)
		}
		ph, err := sys.phase12(kws, false)
		if err != nil {
			t.Fatal(err)
		}
		var latticeLabels []string
		for _, id := range ph.mtnIDs {
			latticeLabels = append(latticeLabels, sys.lat.Node(id).Label)
		}
		sort.Strings(latticeLabels)
		if !reflect.DeepEqual(online.MTNLabels, latticeLabels) {
			t.Errorf("%v: online CNs differ from lattice MTNs\nonline:  %v\nlattice: %v",
				kws, online.MTNLabels, latticeLabels)
		}
		if online.Generated == 0 && len(online.MTNLabels) > 0 {
			t.Errorf("%v: no generation work recorded", kws)
		}
	}
}

func TestDebugContextCancellation(t *testing.T) {
	sys := productSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.DebugContext(ctx, []string{"saffron", "scented", "candle"}, Options{Strategy: RE})
	if err == nil {
		t.Fatal("cancelled context did not abort the traversal")
	}
	// An un-cancelled context behaves like Debug.
	out, err := sys.DebugContext(context.Background(), []string{"saffron", "scented", "candle"}, Options{Strategy: SBH})
	if err != nil || len(out.NonAnswers) != 4 {
		t.Fatalf("plain context run: %v, %d non-answers", err, len(out.NonAnswers))
	}
}

func TestConcurrentDebug(t *testing.T) {
	sys := productSystem(t)
	queries := [][]string{
		{"saffron", "scented", "candle"},
		{"red", "candle"},
		{"vanilla", "oil"},
		{"crimson"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				kws := queries[(g+i)%len(queries)]
				if _, err := sys.Debug(kws, Options{Strategy: Strategies[(g+i)%len(Strategies)]}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Debug: %v", err)
	}
}
