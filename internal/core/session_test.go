package core

import (
	"reflect"
	"testing"
)

func TestSessionMemoSavesSQL(t *testing.T) {
	sys := productSystem(t)
	sess, err := sys.NewSession([]string{"saffron", "scented", "candle"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// Seed the memo with RE, which probes every node the strategies can
	// ever touch; afterwards any traversal order re-runs for free.
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
		if again.Stats.SQLExecuted != 0 {
			t.Errorf("%v re-run executed %d SQL probes, want 0", strat, again.Stats.SQLExecuted)
		}
		if got, want := canonical(again), canonical(first); !reflect.DeepEqual(got, want) {
			t.Errorf("%v re-run diverged", strat)
		}
	}
	if sess.Probes() != first.Stats.SQLExecuted {
		t.Errorf("Probes() = %d, want %d", sess.Probes(), first.Stats.SQLExecuted)
	}
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
	if whatIf.Stats.SQLExecuted != 0 {
		t.Errorf("what-if run executed %d probes", whatIf.Stats.SQLExecuted)
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

func TestSessionResetAfterDataChange(t *testing.T) {
	sys := productSystem(t)
	kws := []string{"scented", "incense"}
	sess, err := sys.NewSession(kws)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.Run(Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Answers) != 0 {
		t.Fatalf("no scented incense expected; answers = %v", trees(before.Answers))
	}
	// The merchant starts stocking scented incense.
	if _, err := sys.Engine().Exec(
		"INSERT INTO Item VALUES (6, 'cedar scented incense stick', 3, 3, 2, 2.49, 'slow burn')"); err != nil {
		t.Fatal(err)
	}
	// Without Reset the memo would keep reporting the stale result.
	sess.Reset()
	after, err := sess.Run(Options{Strategy: SBH})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Answers) == 0 {
		t.Error("new inventory not visible after Reset")
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
