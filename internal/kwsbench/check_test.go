package kwsbench

import (
	"testing"
	"time"
)

// TestTamperedReferenceFails runs real requests against a reference with one
// answer removed and expects every response to that query to fail.
func TestTamperedReferenceFails(t *testing.T) {
	w := mustLookup(t, "debug-warm")
	s, _, err := newSession(w, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ref := s.refs[0].(debugForm)
	if len(ref.Answers) == 0 {
		t.Fatalf("Q1 has no answers to tamper with")
	}
	ref.Answers = ref.Answers[1:]
	s.refs[0] = ref

	l := newLoop(s.e.ts.URL, s.plan, s.chk, clients)
	l.run(20, time.Time{})
	l.close()
	res := &Result{}
	if _, err := s.finish(res, 0); err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 20 || res.Failed != 2 || res.Correct {
		t.Errorf("attempted %d failed %d correct %v; want 20 attempted, the 2 Q1 responses failed",
			res.Attempted, res.Failed, res.Correct)
	}
}
