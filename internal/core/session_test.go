package core

import (
	"reflect"
	"testing"

	"kwsdbg/internal/probecache"
)

func TestSessionRerunIssuesNoSQL(t *testing.T) {
	sys := productSystem(t)
	sess, err := sys.NewSession([]string{"saffron", "scented", "candle"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// Seed the verdict cache with RE, which probes every node the
	// strategies can ever touch; afterwards no traversal order reaches the
	// database.
	first, err := sess.Run(Options{Strategy: RE})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first.Stats.SQLExecuted == 0 {
		t.Fatal("first run executed no SQL")
	}
	for _, strat := range []Strategy{SBH, BUWR, TDWR, BU, TD, RE} {
		again, err := sess.Run(Options{Strategy: strat})
		if err != nil {
			t.Fatalf("re-run %v: %v", strat, err)
		}
		if again.Stats.SQLIssued() != 0 {
			t.Errorf("%v re-run issued %d SQL probes, want 0", strat, again.Stats.SQLIssued())
		}
		if got, want := canonical(again), canonical(first); !reflect.DeepEqual(got, want) {
			t.Errorf("%v re-run diverged", strat)
		}
	}
	if sess.Probes() != first.Stats.SQLIssued() {
		t.Errorf("Probes() = %d, want %d", sess.Probes(), first.Stats.SQLIssued())
	}
}

// TestSessionFirstRunCountsAsDebug pins the accounting contract: a session
// run's Stats mean what Debug's mean, so a fresh session reports the probes
// the strategy spends, shared descendants BU and TD probe again included.
func TestSessionFirstRunCountsAsDebug(t *testing.T) {
	sys := productSystem(t)
	kws := []string{"saffron", "scented", "candle"}
	for _, strat := range append(append([]Strategy{}, Strategies...), RE) {
		want, err := sys.Debug(kws, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sys.NewSession(kws)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Run(Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if got.Stats.SQLExecuted != want.Stats.SQLExecuted {
			t.Errorf("%v: session's first run counts %d probes, Debug %d",
				strat, got.Stats.SQLExecuted, want.Stats.SQLExecuted)
		}
		if sess.Probes() != got.Stats.SQLIssued() {
			t.Errorf("%v: Probes() = %d, want the run's %d issued", strat, sess.Probes(), got.Stats.SQLIssued())
		}
	}
}

// TestSessionRerunAfterWriteProbesOnlySuspects lands an answer-preserving
// INSERT between two runs of a session: the re-run sends the database only
// the dead verdicts the write could have changed, repairs each of them, and
// reports what a fresh Debug does.
func TestSessionRerunAfterWriteProbesOnlySuspects(t *testing.T) {
	kws := []string{"saffron", "scented", "candle"}
	for _, strat := range []Strategy{SBH, BUWR, TDWR, BU, TD, RE} {
		sys := productSystem(t)
		sess, err := sys.NewSession(kws)
		if err != nil {
			t.Fatal(err)
		}
		first, err := sess.Run(Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if _, err := sys.Engine().Exec(
			"INSERT INTO Item VALUES (5, 'lavender oil', 1, 3, 3, 2.5, 'plain')"); err != nil {
			t.Fatal(err)
		}
		again, err := sess.Run(Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v re-run: %v", strat, err)
		}
		st := again.Stats
		if st.Suspects == 0 {
			t.Errorf("%v: a write into Item suspected no dead verdict", strat)
		}
		if st.SQLIssued() != st.Suspects || st.Repaired != st.Suspects {
			t.Errorf("%v: re-run issued %d probes and repaired %d for %d suspects",
				strat, st.SQLIssued(), st.Repaired, st.Suspects)
		}
		if sess.Probes() != first.Stats.SQLIssued()+st.SQLIssued() {
			t.Errorf("%v: Probes() = %d, want %d", strat, sess.Probes(), first.Stats.SQLIssued()+st.SQLIssued())
		}
		fresh, err := sys.Debug(kws, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := normalized(again), normalized(fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: re-run after the write diverges from a fresh Debug\ngot:  %+v\nwant: %+v", strat, got, want)
		}
	}
}

// TestSessionPinsStayOutOfVerdictCache runs a session whose pins contradict
// the data on a System with a verdict cache installed: the hypothetical
// facts must never reach the shared store, so later Debug calls through the
// cache still report what the data says.
func TestSessionPinsStayOutOfVerdictCache(t *testing.T) {
	sys := productSystem(t)
	cache := probecache.New(probecache.Config{})
	sys.SetProbeCache(cache)
	kws := []string{"saffron", "scented", "candle"}
	sess, err := sys.NewSession(kws)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]bool{"Color#1-Item#2-PType#3": true, "Color#1": false}
	for tree, alive := range pins {
		sess.Pin(nodeByTree(t, sys, tree), alive)
	}
	if _, err := sess.Run(Options{Strategy: SBH}); err != nil {
		t.Fatal(err)
	}
	got, err := sys.Debug(kws, Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Debug(kws, Options{Strategy: SBH, BypassCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalized(got), normalized(want)) {
		t.Errorf("Debug through the cache after a pinned session diverges from a bypassed run\ngot:  %+v\nwant: %+v",
			normalized(got), normalized(want))
	}
	for _, id := range sess.Pins() {
		n := sys.Lattice().Node(id)
		if _, outcome := cache.Lookup(probecache.Key(n.Label, n.CopyMask, kws)); outcome != probecache.MissCold {
			t.Errorf("pinned node %s: cache lookup %v, want MissCold", n, outcome)
		}
	}
}

// nodeByTree returns the ID of the lattice node rendered as tree.
func nodeByTree(t *testing.T, sys *System, tree string) int {
	t.Helper()
	for id := 0; id < sys.Lattice().Len(); id++ {
		if sys.Lattice().Node(id).String() == tree {
			return id
		}
	}
	t.Fatalf("no lattice node %s", tree)
	return 0
}

func TestSessionPinWhatIf(t *testing.T) {
	sys := productSystem(t)
	kws := []string{"saffron", "scented", "candle"}
	sess, err := sys.NewSession(kws)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.Run(Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	// Find q1 (Color#1-Item#2-PType#3), dead in the base run.
	var q1 QueryInfo
	for _, na := range base.NonAnswers {
		if na.Query.Tree == "Color#1-Item#2-PType#3" {
			q1 = na.Query
		}
	}
	if q1.NodeID == 0 && q1.Tree == "" {
		t.Fatalf("q1 not among non-answers: %+v", base.NonAnswers)
	}
	// What if the color join were fixed? Pin q1 alive and re-run.
	sess.Pin(q1.NodeID, true)
	if got := sess.Pins(); !reflect.DeepEqual(got, []int{q1.NodeID}) {
		t.Errorf("Pins = %v", got)
	}
	whatIf, err := sess.Run(Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	foundAlive := false
	for _, a := range whatIf.Answers {
		if a.Tree == "Color#1-Item#2-PType#3" {
			foundAlive = true
		}
	}
	if !foundAlive {
		t.Errorf("pinned-alive q1 not reported as answer; answers = %v", trees(whatIf.Answers))
	}
	if whatIf.Stats.SQLIssued() != 0 {
		t.Errorf("what-if run issued %d probes", whatIf.Stats.SQLIssued())
	}
	// Unpin restores the real state.
	sess.Unpin(q1.NodeID)
	restored, err := sess.Run(Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(restored), canonical(base); !reflect.DeepEqual(got, want) {
		t.Error("unpin did not restore the base output")
	}
}

func TestSessionPinBaseNode(t *testing.T) {
	sys := productSystem(t)
	sess, err := sys.NewSession([]string{"saffron"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.Run(Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Answers) != 3 {
		t.Fatalf("answers = %v", trees(base.Answers))
	}
	// Pin the Color#1 base node dead: "ignore the Color interpretation".
	var colorID int
	for _, a := range base.Answers {
		if a.Tree == "Color#1" {
			colorID = a.NodeID
		}
	}
	sess.Pin(colorID, false)
	out, err := sess.Run(Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Answers {
		if a.Tree == "Color#1" {
			t.Error("pinned-dead base node still reported alive")
		}
	}
	if len(out.NonAnswers) == 0 {
		t.Error("pinned-dead interpretation not reported as non-answer")
	}
}

// TestSessionSeesWritesWithoutReset re-runs a session after an INSERT
// without calling Reset: the memo learned before the write must not answer
// for the data after it, so the session reports what a fresh Debug does.
func TestSessionSeesWritesWithoutReset(t *testing.T) {
	sys := productSystem(t)
	kws := []string{"scented", "incense"}
	sess, err := sys.NewSession(kws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(Options{Strategy: SBH}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Engine().Exec(
		"INSERT INTO Item VALUES (6, 'cedar scented incense stick', 3, 3, 2, 2.49, 'slow burn')"); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Run(Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Debug(kws, Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonical(got), canonical(want)) {
		t.Errorf("session after a write reports %d answers, a fresh Debug %d\nsession: %v\nfresh:   %v",
			len(got.Answers), len(want.Answers), canonical(got), canonical(want))
	}
}

func TestSessionErrors(t *testing.T) {
	sys := productSystem(t)
	if _, err := sys.NewSession(nil); err == nil {
		t.Error("empty session accepted")
	}
	if _, err := sys.NewSession([]string{"a", "b", "c", "d"}); err == nil {
		t.Error("oversized session accepted")
	}
	sess, err := sys.NewSession([]string{"candle"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(Options{Pa: 2}); err == nil {
		t.Error("bad pa accepted")
	}
	if got := sess.Keywords(); !reflect.DeepEqual(got, []string{"candle"}) {
		t.Errorf("Keywords = %v", got)
	}
}
