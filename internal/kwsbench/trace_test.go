package kwsbench

import "testing"

// TestSelfTimeAndCoverage checks the span arithmetic on a synthetic request
// laid out the way the traced run lays one out.
func TestSelfTimeAndCoverage(t *testing.T) {
	var l spanLog
	req := l.add(0, -1, "server.request", 0, 100)
	dbg := l.add(0, req, "core.debug", 0, 80)
	ph := l.add(0, dbg, "core.phase12", 0, 30)
	l.chain(0, ph, 0, []string{"core.map", "core.prune", "core.mtn"}, []int64{5, 20, 3})
	l.add(0, dbg, "core.sublattice", 30, 10)
	tr := l.add(0, dbg, "core.traverse", 40, 30)
	l.add(0, tr, "core.probe", 40, 10)
	l.add(0, dbg, "core.assemble", 70, 5)
	l.add(0, req, "report.encode", 80, 10)

	for _, c := range []struct {
		id   int
		want int64
	}{
		{req, 10}, // 100 - debug 80 - encode 10
		{dbg, 5},  // 80 - (30 + 10 + 30 + 5)
		{ph, 2},   // 30 - (5 + 20 + 3)
		{tr, 20},  // 30 - probe 10
	} {
		if got := selfTime(l.spans, c.id); got != c.want {
			t.Errorf("selfTime(%s) = %d, want %d", l.spans[c.id].Name, got, c.want)
		}
	}
	if got, want := coverage(l.spans, "core.debug"), 75.0/80; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	shares := selfShares(l.spans)
	for name, want := range map[string]float64{
		"server.request": 0.10, "core.debug": 0.05, "core.prune": 0.20, "core.probe": 0.10,
	} {
		if got := shares[name]; got != want {
			t.Errorf("self share of %s = %v, want %v", name, got, want)
		}
	}

	// A second request whose children overlap each other and overrun their
	// parent: overlaps count once and children are clipped to the parent.
	req2 := l.add(1, -1, "server.request", 200, 50)
	dbg2 := l.add(1, req2, "core.debug", 200, 40)
	l.add(1, dbg2, "core.phase12", 200, 30)
	l.add(1, dbg2, "core.traverse", 220, 60)
	if got := selfTime(l.spans, dbg2); got != 0 {
		t.Errorf("clipped selfTime = %d, want 0", got)
	}
	if got := selfTime(l.spans, req2); got != 10 {
		t.Errorf("selfTime(req2) = %d, want 10", got)
	}
	if got, want := coverage(l.spans, "core.debug"), (75.0+40)/(80+40); got != want {
		t.Errorf("coverage over two requests = %v, want %v", got, want)
	}
}
