package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/lattice"
)

// The tests in this file check Phases 1-2 and the sublattice against the
// paper's definitions (§2.3-2.4), through reference implementations that
// share nothing with the flat lattice kernels: per-vertex pruning against
// string-keyed bindings, totality read off the vertices, and descendant and
// ancestor closures built with maps and a (level, label) sort.

// refPhase12 is Phases 1-2 by definition for a query whose j-th keyword
// occurs in the relations tables[j-1].
type refPhase12 struct {
	surviving []int
	mtnIDs    []int
}

func refPhase12Of(lat *lattice.Lattice, tables [][]string) refPhase12 {
	n := len(tables)
	bound := make([]map[string]bool, n)
	for j, ts := range tables {
		bound[j] = make(map[string]bool, len(ts))
		for _, t := range ts {
			bound[j][t] = true
		}
	}
	// A node survives iff every keyword copy j sits on a relation that
	// keyword j binds.
	var ref refPhase12
	for id := 0; id < lat.Len(); id++ {
		ok := true
		for _, v := range lat.Node(id).Vertices {
			if v.Copy != 0 && (v.Copy > n || !bound[v.Copy-1][v.Rel]) {
				ok = false
				break
			}
		}
		if ok {
			ref.surviving = append(ref.surviving, id)
		}
	}
	// A node is total iff copies 1..n all occur among its vertices; an MTN
	// is a total survivor with no total child.
	total := func(id int) bool {
		seen := make(map[int]bool)
		for _, v := range lat.Node(id).Vertices {
			seen[v.Copy] = true
		}
		for j := 1; j <= n; j++ {
			if !seen[j] {
				return false
			}
		}
		return true
	}
	for _, id := range ref.surviving {
		if !total(id) {
			continue
		}
		minimal := true
		for _, c := range lat.Node(id).Children {
			if total(c) {
				minimal = false
			}
		}
		if minimal {
			ref.mtnIDs = append(ref.mtnIDs, id)
		}
	}
	return ref
}

// refSub is a sublattice with one slice per adjacency row.
type refSub struct {
	nodeID, level, mtns          []int
	children, parents, desc, asc [][]int32
	regions                      []int32
	maxLevel                     int
}

// refSublattice builds the sublattice arrays with per-node maps: sub indexes
// in (level, label) order, desc/asc as map closures read back sorted.
func refSublattice(lat *lattice.Lattice, mtnIDs []int) *refSub {
	in := make(map[int]bool)
	var stack []int
	for _, id := range mtnIDs {
		if !in[id] {
			in[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range lat.Node(id).Children {
			if !in[c] {
				in[c] = true
				stack = append(stack, c)
			}
		}
	}
	s := &refSub{}
	for id := range in {
		s.nodeID = append(s.nodeID, id)
	}
	sort.Slice(s.nodeID, func(a, b int) bool {
		na, nb := lat.Node(s.nodeID[a]), lat.Node(s.nodeID[b])
		if na.Level != nb.Level {
			return na.Level < nb.Level
		}
		return na.Label < nb.Label
	})
	subIdx := make(map[int]int, len(s.nodeID))
	for i, id := range s.nodeID {
		subIdx[id] = i
	}
	sorted := func(set map[int32]bool) []int32 {
		if len(set) == 0 {
			return nil
		}
		out := make([]int32, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	n := len(s.nodeID)
	s.level = make([]int, n)
	s.children = make([][]int32, n)
	s.parents = make([][]int32, n)
	s.desc = make([][]int32, n)
	s.asc = make([][]int32, n)
	for i, id := range s.nodeID {
		node := lat.Node(id)
		s.level[i] = node.Level
		s.maxLevel = max(s.maxLevel, node.Level)
		for _, c := range node.Children {
			s.children[i] = append(s.children[i], int32(subIdx[c]))
		}
		for _, p := range node.Parents {
			if pi, ok := subIdx[p]; ok {
				s.parents[i] = append(s.parents[i], int32(pi))
			}
		}
	}
	for i := 0; i < n; i++ {
		set := make(map[int32]bool)
		for _, c := range s.children[i] {
			set[c] = true
			for _, d := range s.desc[c] {
				set[d] = true
			}
		}
		s.desc[i] = sorted(set)
	}
	for i := n - 1; i >= 0; i-- {
		set := make(map[int32]bool)
		for _, p := range s.parents[i] {
			set[p] = true
			for _, a := range s.asc[p] {
				set[a] = true
			}
		}
		s.asc[i] = sorted(set)
	}
	for _, id := range mtnIDs {
		s.mtns = append(s.mtns, subIdx[id])
	}
	sort.Ints(s.mtns)
	s.regions = make([]int32, n)
	for _, m := range s.mtns {
		s.regions[m]++
		for _, d := range s.desc[m] {
			s.regions[d]++
		}
	}
	return s
}

// rows unpacks a CSR adjacency into one slice per row, nil for an empty one.
func rows(c csr) [][]int32 {
	out := make([][]int32, len(c.off)-1)
	for i := range out {
		if r := c.row(i); len(r) > 0 {
			out[i] = r
		}
	}
	return out
}

// checkSublattice compares a built sublattice with the reference.
func checkSublattice(t *testing.T, kws []string, got *sublattice, want *refSub) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"nodeID", got.nodeID, want.nodeID},
		{"level", got.level, want.level},
		{"children", rows(got.children), want.children},
		{"parents", rows(got.parents), want.parents},
		{"desc", rows(got.desc), want.desc},
		{"asc", rows(got.asc), want.asc},
		{"mtns", got.mtns, want.mtns},
		{"regions", got.regions, want.regions},
		{"maxLevel", got.maxLevel, want.maxLevel},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%v: sublattice %s differs from the reference\ngot:  %v\nwant: %v", kws, f.name, f.got, f.want)
		}
	}
	for i, id := range want.nodeID {
		if x, ok := got.index(id); !ok || x != i {
			t.Fatalf("%v: index(%d) = %d, %v; want %d", kws, id, x, ok, i)
		}
	}
	for _, id := range []int{-1, got.lat.Len()} {
		if _, ok := got.index(id); ok {
			t.Fatalf("%v: index(%d) reports a member", kws, id)
		}
	}
}

// checkAgainstDefinitions runs Phases 1-2 and the sublattice build for one
// query, uncached and through the per-binding cache, and compares every
// result with the reference implementations. It reports whether the query
// had MTNs.
func checkAgainstDefinitions(t *testing.T, sys *System, kws []string) bool {
	t.Helper()
	ph, err := sys.phase12(kws, false)
	if err != nil {
		t.Fatalf("%v: phase12: %v", kws, err)
	}
	if len(ph.nonKeywords) > 0 {
		return false
	}
	var tables [][]string
	for _, kw := range kws {
		tables = append(tables, sys.eng.Index().Tables(kw))
	}
	lat := sys.lat
	ref := refPhase12Of(lat, tables)
	pruned := lat.Prune(lat.Bind(tables))
	var surviving []int
	for id := 0; id < lat.Len(); id++ {
		if pruned.Has(id) {
			surviving = append(surviving, id)
		}
	}
	if !reflect.DeepEqual(surviving, ref.surviving) || ph.stats.PrunedNodes != len(ref.surviving) {
		t.Fatalf("%v: %d survivors (PrunedNodes %d), reference has %d",
			kws, len(surviving), ph.stats.PrunedNodes, len(ref.surviving))
	}
	if !reflect.DeepEqual(ph.mtnIDs, ref.mtnIDs) || ph.stats.MTNs != len(ref.mtnIDs) {
		t.Fatalf("%v: MTNs %v (count %d), reference %v", kws, ph.mtnIDs, ph.stats.MTNs, ref.mtnIDs)
	}
	cached, err := sys.phase12(kws, true)
	if err != nil {
		t.Fatalf("%v: cached phase12: %v", kws, err)
	}
	e := cached.entry
	if e.pruned != len(ref.surviving) || !reflect.DeepEqual(e.mtnIDs, ref.mtnIDs) {
		t.Fatalf("%v: cached entry has %d survivors and MTNs %v, reference %d and %v",
			kws, e.pruned, e.mtnIDs, len(ref.surviving), ref.mtnIDs)
	}
	if len(ph.mtnIDs) == 0 {
		if e.sub != nil {
			t.Fatalf("%v: cached entry has a sublattice but no MTNs", kws)
		}
		return false
	}
	want := refSublattice(lat, ref.mtnIDs)
	checkSublattice(t, kws, buildSublattice(lat, ph.mtnIDs), want)
	checkSublattice(t, kws, e.sub, want)
	for x, id := range want.nodeID {
		if got := e.info(x); got.NodeID != id || got.Level != want.level[x] || got.Tree != lat.Node(id).String() {
			t.Fatalf("%v: entry describes sub node %d as %+v, want node %d at level %d, %q",
				kws, x, got, id, want.level[x], lat.Node(id).String())
		}
	}
	return true
}

// subsets returns every non-empty subset of kws, keywords in query order.
func subsets(kws []string) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(kws); mask++ {
		var sub []string
		for i, kw := range kws {
			if mask&(1<<i) != 0 {
				sub = append(sub, kw)
			}
		}
		out = append(out, sub)
	}
	return out
}

// onlineCNQueries are TestOnlineCNsMatchLattice's product-schema queries.
var onlineCNQueries = [][]string{
	{"saffron", "scented", "candle"},
	{"red", "candle"},
	{"saffron"},
	{"vanilla", "oil"},
	{"floral", "pattern", "oil"},
}

func TestPhase12DefinitionsProduct(t *testing.T) {
	sys := productSystem(t)
	withMTNs := 0
	for _, q := range onlineCNQueries {
		for _, kws := range subsets(q) {
			if checkAgainstDefinitions(t, sys, kws) {
				withMTNs++
			}
		}
	}
	if withMTNs == 0 {
		t.Fatal("no product query had MTNs; the sublattice comparison never ran")
	}
}

func TestPhase12DefinitionsRandomSchemas(t *testing.T) {
	r := rand.New(rand.NewSource(20150327))
	vocab := []string{"amber", "birch", "cedar", "dune", "ember", "flint", "grove", "haze", "missing"}
	withMTNs := 0
	for trial := 0; trial < 8; trial++ {
		sys, _ := randomSystem(t, r)
		for q := 0; q < 6; q++ {
			kws := make([]string, 1+r.Intn(3))
			for i := range kws {
				kws[i] = vocab[r.Intn(len(vocab))]
			}
			if checkAgainstDefinitions(t, sys, kws) {
				withMTNs++
			}
		}
	}
	if withMTNs == 0 {
		t.Fatal("no random query had MTNs; the sublattice comparison never ran")
	}
}

func TestPhase12DefinitionsDBLife(t *testing.T) {
	sys := dblifeSystem(t, 5)
	for _, q := range dblife.Workload() {
		if !checkAgainstDefinitions(t, sys, q.Keywords) {
			t.Errorf("%s %v: no MTNs at level 5; the sublattice comparison did not run", q.ID, q.Keywords)
		}
	}
}

// TestPhase12DefinitionsAfterLoad runs the comparison on a lattice read back
// by Load, whose derived arrays are rebuilt from the saved nodes, and checks
// that the loaded lattice prunes exactly as the generated one.
func TestPhase12DefinitionsAfterLoad(t *testing.T) {
	gen := productSystem(t)
	var buf bytes.Buffer
	if err := gen.lat.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	lat, err := lattice.Load(&buf, gen.lat.Schema())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	sys, err := NewSystem(gen.eng, lat)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	for _, q := range onlineCNQueries {
		for _, kws := range subsets(q) {
			checkAgainstDefinitions(t, sys, kws)
			a, errA := gen.phase12(kws, false)
			b, errB := sys.phase12(kws, false)
			if errA != nil || errB != nil {
				t.Fatalf("%v: phase12: %v, %v", kws, errA, errB)
			}
			if len(a.nonKeywords) > 0 {
				continue
			}
			pa, pb := gen.lat.Prune(gen.lat.Bind(a.tables)), lat.Prune(lat.Bind(b.tables))
			if !reflect.DeepEqual(pa, pb) || !reflect.DeepEqual(a.mtnIDs, b.mtnIDs) {
				t.Fatalf("%v: loaded lattice prunes differently from the generated one", kws)
			}
		}
	}
}

// dblifeSystems caches DBLife debuggers by level; the level-5 lattice takes
// seconds to generate.
var dblifeSystems struct {
	sync.Mutex
	eng  *engine.Engine
	byLv map[int]*System
}

// dblifeSystem returns a debugger over the DBLife data (seed 1, scale 0.02,
// the data every Q1-Q10 keyword binds in) with a lattice of the given level
// and three keyword slots.
func dblifeSystem(t testing.TB, level int) *System {
	t.Helper()
	dblifeSystems.Lock()
	defer dblifeSystems.Unlock()
	if sys := dblifeSystems.byLv[level]; sys != nil {
		return sys
	}
	if dblifeSystems.eng == nil {
		eng, err := dblife.Generate(dblife.Config{Seed: 1, Scale: 0.02})
		if err != nil {
			t.Fatalf("dblife.Generate: %v", err)
		}
		dblifeSystems.eng = eng
		dblifeSystems.byLv = make(map[int]*System)
	}
	sys, err := Build(dblifeSystems.eng, lattice.Options{MaxJoins: level - 1, KeywordSlots: 3})
	if err != nil {
		t.Fatalf("Build level %d: %v", level, err)
	}
	dblifeSystems.byLv[level] = sys
	return sys
}
