package bitprobe_test

import (
	"fmt"
	"testing"

	"kwsdbg/internal/core/bitprobe"
	"kwsdbg/internal/figure2"
	"kwsdbg/internal/lattice"
)

// TestProbeAgreesWithSQL sweeps every node of the figure2 lattice whose
// keyword copies the query binds and checks the bitset verdict against the
// rendered existence SQL — the oracle of record. Nodes the evaluator
// declines must decline for a stated cause.
func TestProbeAgreesWithSQL(t *testing.T) {
	eng, err := figure2.Engine()
	if err != nil {
		t.Fatalf("figure2.Engine: %v", err)
	}
	lat, err := lattice.GenerateOpts(eng.Database().Schema(), lattice.Options{MaxJoins: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ev := bitprobe.New(eng)
	queries := [][]string{
		{"saffron"},
		{"saffron", "scented"},
		{"saffron", "scented", "candle"},
		{"candle", "saffron"},
		{"acme"},
		{"nosuchtoken"},
	}
	probed, declined := 0, 0
	for _, kws := range queries {
		for id := 0; id < lat.Len(); id++ {
			node := lat.Node(id)
			if tooManyCopies(node, len(kws)) {
				continue
			}
			key := fmt.Sprintf("%s|%v", node.Label, kws)
			alive, ok, cause := ev.Probe(node, kws, key)
			if !ok {
				if cause == "" {
					t.Fatalf("node %d %v: declined without a cause", id, kws)
				}
				declined++
				continue
			}
			probed++
			sql, err := lat.SQL(node, kws, true)
			if err != nil {
				t.Fatalf("node %d %v: render: %v", id, kws, err)
			}
			res, err := eng.Query(sql)
			if err != nil {
				t.Fatalf("node %d %v: query: %v", id, kws, err)
			}
			if want := len(res.Rows) > 0; alive != want {
				t.Errorf("node %d (%s) %v: bitset says alive=%t, SQL says %t", id, node.Label, kws, alive, want)
			}
		}
	}
	if probed == 0 {
		t.Fatal("evaluator declined every node; fixture broken")
	}
	t.Logf("probed=%d declined=%d", probed, declined)
}

// tooManyCopies reports whether the node binds a keyword copy the query does
// not supply (lattice.SQL would error on it).
func tooManyCopies(n *lattice.Node, nk int) bool {
	for _, v := range n.Vertices {
		if v.Copy > nk {
			return true
		}
	}
	return false
}

// TestUnanchoredFallback: a node with no keyword-bound vertex has no
// candidate set to anchor the semi-join reduction; the evaluator must
// decline it with the "unanchored" cause.
func TestUnanchoredFallback(t *testing.T) {
	eng, err := figure2.Engine()
	if err != nil {
		t.Fatalf("figure2.Engine: %v", err)
	}
	lat, err := lattice.GenerateOpts(eng.Database().Schema(), lattice.Options{MaxJoins: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ev := bitprobe.New(eng)
	for id := 0; id < lat.Len(); id++ {
		node := lat.Node(id)
		if hasBoundVertex(node, 1) {
			continue
		}
		_, ok, cause := ev.Probe(node, []string{"saffron"}, node.Label)
		if ok || cause != "unanchored" {
			t.Fatalf("free-only node %d (%s): ok=%t cause=%q, want unanchored fallback", id, node.Label, ok, cause)
		}
		return
	}
	t.Fatal("lattice has no free-only nodes; fixture broken")
}

// hasBoundVertex reports whether some vertex binds a keyword the nk-keyword
// query supplies.
func hasBoundVertex(n *lattice.Node, nk int) bool {
	for _, v := range n.Vertices {
		if v.Copy >= 1 && v.Copy <= nk {
			return true
		}
	}
	return false
}

// TestMemoInvalidatesOnInsert: a memoized dead verdict must flip after an
// INSERT that gives the tree its first matching row, and the repeat probe
// must serve from the refreshed memo.
func TestMemoInvalidatesOnInsert(t *testing.T) {
	eng, err := figure2.Engine()
	if err != nil {
		t.Fatalf("figure2.Engine: %v", err)
	}
	lat, err := lattice.GenerateOpts(eng.Database().Schema(), lattice.Options{MaxJoins: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ev := bitprobe.New(eng)
	kws := []string{"lilac"}
	node, okN := lat.NodeByLabel("Item^1")
	if !okN {
		for id := 0; id < lat.Len(); id++ {
			n := lat.Node(id)
			if len(n.Vertices) == 1 && n.Vertices[0].Rel == "Item" && n.Vertices[0].Copy == 1 {
				node = n
				break
			}
		}
	}
	if node == nil {
		t.Fatal("no Item^1 node in lattice")
	}
	probe := func() bool {
		alive, ok, cause := ev.Probe(node, kws, "memo-test")
		if !ok {
			t.Fatalf("declined: %s", cause)
		}
		return alive
	}
	if probe() {
		t.Fatal("lilac already matches Item; fixture broken")
	}
	// Repeat probe exercises the memo fast path and must agree.
	if probe() {
		t.Fatal("memoized probe diverged")
	}
	if _, err := eng.Exec("INSERT INTO Item VALUES (9, 'lilac candle', 2, 3, 2, 6.0, 'fresh')"); err != nil {
		t.Fatalf("Exec(INSERT): %v", err)
	}
	if !probe() {
		t.Fatal("memo survived an intersecting INSERT")
	}
	if !probe() {
		t.Fatal("refreshed memo diverged")
	}
}

// TestWarmAndPurge: a first probe pass warms plans, candidate bitmaps and
// verdict memos; purging drops them; verdicts are unchanged after both.
func TestWarmAndPurge(t *testing.T) {
	eng, err := figure2.Engine()
	if err != nil {
		t.Fatalf("figure2.Engine: %v", err)
	}
	lat, err := lattice.GenerateOpts(eng.Database().Schema(), lattice.Options{MaxJoins: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ev := bitprobe.New(eng)
	kws := []string{"saffron", "scented", "candle"}
	var verdicts []bool
	for id := 0; id < lat.Len(); id++ {
		node := lat.Node(id)
		if tooManyCopies(node, len(kws)) || !hasBoundVertex(node, len(kws)) {
			continue
		}
		alive, ok, _ := ev.Probe(node, kws, node.Label)
		if ok {
			verdicts = append(verdicts, alive)
		}
	}
	ev.Purge()
	i := 0
	for id := 0; id < lat.Len(); id++ {
		node := lat.Node(id)
		if tooManyCopies(node, len(kws)) || !hasBoundVertex(node, len(kws)) {
			continue
		}
		alive, ok, _ := ev.Probe(node, kws, node.Label)
		if !ok {
			continue
		}
		if alive != verdicts[i] {
			t.Fatalf("node %d: verdict changed across Purge: %t -> %t", id, verdicts[i], alive)
		}
		i++
	}
	if i != len(verdicts) {
		t.Fatalf("coverable node set changed across Purge: %d -> %d", len(verdicts), i)
	}
}
