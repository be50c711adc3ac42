package core

import (
	"container/heap"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
)

// Reference tests for the output-assembly fast paths: each keeps the
// algorithm it replaced as its reference.

// refNodeString is Node.String's previous algorithm: render every vertex,
// sort the renderings, join them.
func refNodeString(n *lattice.Node) string {
	parts := make([]string, len(n.Vertices))
	for i, v := range n.Vertices {
		parts[i] = v.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, "-")
}

func checkNodeStrings(t *testing.T, name string, lat *lattice.Lattice) {
	t.Helper()
	for id := 0; id < lat.Len(); id++ {
		n := lat.Node(id)
		if got, want := n.String(), refNodeString(n); got != want {
			t.Fatalf("%s node %d: String() = %q, want %q", name, id, got, want)
		}
	}
}

func TestNodeStringMatchesSortJoin(t *testing.T) {
	lat := dblifeSystem(t, 5).lat
	checkNodeStrings(t, "dblife level 5", lat)
	r := rand.New(rand.NewSource(20150327))
	for trial := 0; trial < 12; trial++ {
		sys, _ := randomSystem(t, r)
		checkNodeStrings(t, "random schema", sys.lat)
	}
	// The rendering allocates only its result.
	deepest := lat.Node(lat.Len() - 1)
	if allocs := testing.AllocsPerRun(100, func() { _ = deepest.String() }); allocs != 1 {
		t.Errorf("String() on a level-%d node allocates %v times, want 1", deepest.Level, allocs)
	}
}

// TestNodeStringOrdersLikeStrings covers vertex names the generated schemas
// never use: a relation name that prefixes another, multi-digit copies, and
// characters that sort below '#'.
func TestNodeStringOrdersLikeStrings(t *testing.T) {
	n := &lattice.Node{Vertices: []lattice.Vertex{
		{Rel: "AB", Copy: 0}, {Rel: "A", Copy: 12}, {Rel: "A", Copy: 2}, {Rel: "A!", Copy: 1},
		{Rel: "A#1", Copy: 0}, {Rel: "Z", Copy: 1}, {Rel: "", Copy: 3}, {Rel: "A", Copy: 1},
	}}
	if got, want := n.String(), refNodeString(n); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := (&lattice.Node{}).String(); got != "" {
		t.Errorf("String() of a node without vertices = %q, want \"\"", got)
	}
}

// refGainHeap is the container/heap implementation SBH used before its typed
// heap.
type refGainHeap []gainItem

func (h refGainHeap) Len() int { return len(h) }
func (h refGainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].x < h[j].x
}
func (h refGainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refGainHeap) Push(v any)   { *h = append(*h, v.(gainItem)) }
func (h *refGainHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TestGainHeapMatchesContainerHeap drives both heaps the way SBH does — one
// entry per node, gains drawn from few values so ties are common, and popped
// entries re-pushed with a lower gain — and requires the same pop sequence.
func TestGainHeapMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(64)
		levels := 1 + r.Intn(6)
		var got gainHeap
		want := &refGainHeap{}
		for x := 0; x < n; x++ {
			it := gainItem{x: x, gain: float64(r.Intn(levels)) / 2}
			got.push(it)
			heap.Push(want, it)
		}
		for step := 0; len(got) > 0; step++ {
			if len(got) != want.Len() {
				t.Fatalf("trial %d step %d: sizes %d and %d", trial, step, len(got), want.Len())
			}
			g, w := got.pop(), heap.Pop(want).(gainItem)
			if g != w {
				t.Fatalf("trial %d step %d: typed heap popped %+v, container/heap %+v", trial, step, g, w)
			}
			if r.Intn(3) == 0 && g.gain > 0 {
				it := gainItem{x: g.x, gain: g.gain - float64(1+r.Intn(2))/2}
				got.push(it)
				heap.Push(want, it)
			}
		}
		if want.Len() != 0 {
			t.Fatalf("trial %d: reference heap kept %d entries", trial, want.Len())
		}
	}
}

// checkQuerySQL requires every query an Output reports to come without SQL
// text, and Output.QuerySQL to render it exactly as Lattice.SQL does.
func checkQuerySQL(t *testing.T, name string, sys *System, out *Output) int {
	t.Helper()
	var qs []QueryInfo
	qs = append(qs, out.Answers...)
	for _, na := range out.NonAnswers {
		qs = append(append(qs, na.Query), na.MPANs...)
	}
	qs = append(qs, out.Unclassified...)
	for _, q := range qs {
		if q.SQL != "" {
			t.Fatalf("%s: node %d carries SQL text from Debug", name, q.NodeID)
		}
		want, err := sys.lat.SQL(sys.lat.Node(q.NodeID), out.Keywords, false)
		if err != nil {
			t.Fatalf("%s: Lattice.SQL(node %d): %v", name, q.NodeID, err)
		}
		if got := out.QuerySQL(q); got != want {
			t.Fatalf("%s: QuerySQL(node %d) = %q, want %q", name, q.NodeID, got, want)
		}
	}
	return len(qs)
}

func TestQuerySQLMatchesLatticeSQL(t *testing.T) {
	fig2 := productSystem(t)
	for _, kws := range [][]string{{"saffron", "scented", "candle"}, {"scented", "candle"}, {"lilac"}} {
		for _, strat := range Strategies {
			out, err := fig2.Debug(kws, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			checkQuerySQL(t, "figure2", fig2, out)
		}
	}
	sys := dblifeSystem(t, 3)
	checked, unclassified := 0, 0
	for _, q := range dblife.Workload() {
		for _, opts := range []Options{{Strategy: SBH}, {Strategy: BUWR, ProbeBudget: 2}} {
			out, err := sys.Debug(q.Keywords, opts)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			checked += checkQuerySQL(t, q.ID, sys, out)
			unclassified += len(out.Unclassified)
		}
	}
	if checked == 0 || unclassified == 0 {
		t.Fatalf("checked %d queries, %d unclassified; want both > 0", checked, unclassified)
	}
	// An Output whose queries already carry SQL text (one built outside
	// Debug) keeps it.
	custom := &Output{}
	if got := custom.QuerySQL(QueryInfo{SQL: "SELECT 1"}); got != "SELECT 1" {
		t.Errorf("QuerySQL kept %q, want the query's own text", got)
	}
}

func TestSearchLeavesSQLEmpty(t *testing.T) {
	sys := productSystem(t)
	res, _, err := sys.Search([]string{"scented", "candle"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, partial, _, err := sys.SearchPartial([]string{"saffron", "scented", "incense"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(partial) == 0 {
		t.Fatalf("got %d results and %d partial results; want both > 0", len(res), len(partial))
	}
	for _, r := range res {
		if r.Query.SQL != "" {
			t.Fatalf("Search result for %s carries SQL text", r.Query.Tree)
		}
	}
	for _, p := range partial {
		if p.Query.SQL != "" {
			t.Fatalf("SearchPartial result for %s carries SQL text", p.Query.Tree)
		}
	}
}
