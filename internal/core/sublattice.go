package core

import (
	"math/bits"
	"sort"

	"kwsdbg/internal/lattice"
)

// sublattice is the Phase 2 restriction of the pruned lattice: the MTNs of a
// keyword query plus all of their descendants, reindexed densely so traversal
// state fits in flat arrays and bitsets.
//
// Index 0..n-1 are sub-node indexes; nodeID maps back to lattice node IDs.
// desc/asc are the strict descendant/ancestor index lists of each sub-node
// (descendants within the sub-lattice are complete, because descendant sets
// are downward closed; ancestors are restricted to the sub-lattice, which is
// the scope MPAN maximality is defined over).
type sublattice struct {
	lat    *lattice.Lattice
	nodeID []int // sub index -> lattice node ID
	level  []int // sub index -> lattice level

	children [][]int32 // sub index -> child sub indexes
	parents  [][]int32 // sub index -> parent sub indexes (within sub)

	desc [][]int32 // strict descendants, sorted
	asc  [][]int32 // strict ancestors within sub, sorted

	mtns []int // sub indexes of the MTNs, sorted

	// owners[x] lists positions into mtns of the MTNs whose Desc+ contains x.
	owners [][]int32

	maxLevel int

	// members has bit r set when the lattice node of rank r is in the
	// sub-lattice, and before[w] counts the members below word w: sub
	// indexes follow rank, so a node's sub index is the number of members
	// of lower rank (see index).
	members bitset
	before  []int32
}

// buildSublattice collects Desc+(m) for every MTN (given as lattice node IDs)
// and precomputes the navigation arrays.
func buildSublattice(lat *lattice.Lattice, mtnIDs []int) *sublattice {
	s := &sublattice{lat: lat, members: newBitset(lat.Len())}

	// Depth-first down from the MTNs over lattice children links, marking
	// members by rank and counting the child links inside the sub-lattice.
	stack := make([]int, 0, len(mtnIDs))
	push := func(id int) {
		if r := lat.Rank(id); !s.members.has(r) {
			s.members.set(r)
			stack = append(stack, id)
		}
	}
	for _, id := range mtnIDs {
		push(id)
	}
	links := 0
	for len(stack) > 0 {
		node := lat.Node(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, c := range node.Children {
			push(c)
		}
		links += len(node.Children)
	}

	// Sub indexes follow rank, the lattice's (level, label) order, so index
	// order is a topological order from the base upward — handy for DP and
	// determinism.
	s.before = make([]int32, len(s.members))
	n := 0
	for w, word := range s.members {
		s.before[w] = int32(n)
		n += bits.OnesCount64(word)
	}
	s.nodeID = make([]int, 0, n)
	s.members.forEach(func(r int) { s.nodeID = append(s.nodeID, lat.AtRank(r)) })

	s.level = make([]int, n)
	s.children = make([][]int32, n)
	s.parents = make([][]int32, n)
	kids, pars := make([]int32, 0, links), make([]int32, 0, links)
	for i, id := range s.nodeID {
		node := lat.Node(id)
		s.level[i] = node.Level
		s.maxLevel = max(s.maxLevel, node.Level)
		from := len(kids)
		for _, c := range node.Children {
			ci, _ := s.index(c)
			kids = append(kids, int32(ci))
		}
		s.children[i] = window(kids, from)
		from = len(pars)
		for _, p := range node.Parents {
			if pi, ok := s.index(p); ok {
				pars = append(pars, int32(pi))
			}
		}
		s.parents[i] = window(pars, from)
	}

	// Strict descendants, bottom-up: desc(x) = U_c ({c} U desc(c)), gathered
	// in a scratch bitset and read back in ascending order.
	scratch := newBitset(n)
	s.desc = make([][]int32, n)
	for i := 0; i < n; i++ { // index order is level order
		for _, c := range s.children[i] {
			scratch.set(int(c))
			for _, d := range s.desc[c] {
				scratch.set(int(d))
			}
		}
		s.desc[i] = scratch.drain()
	}
	// Strict ancestors, top-down.
	s.asc = make([][]int32, n)
	for i := n - 1; i >= 0; i-- {
		for _, p := range s.parents[i] {
			scratch.set(int(p))
			for _, a := range s.asc[p] {
				scratch.set(int(a))
			}
		}
		s.asc[i] = scratch.drain()
	}

	for _, id := range mtnIDs {
		m, _ := s.index(id)
		s.mtns = append(s.mtns, m)
	}
	sort.Ints(s.mtns)

	// Size every owners list, carve them from one array, then fill them in
	// MTN order.
	size := make([]int, n)
	total := 0
	for _, m := range s.mtns {
		size[m]++
		for _, d := range s.desc[m] {
			size[d]++
		}
		total += 1 + len(s.desc[m])
	}
	s.owners = make([][]int32, n)
	all := make([]int32, total)
	for x, k := range size {
		if k > 0 {
			s.owners[x], all = all[:0:k], all[k:]
		}
	}
	for mi, m := range s.mtns {
		s.owners[m] = append(s.owners[m], int32(mi))
		for _, d := range s.desc[m] {
			s.owners[d] = append(s.owners[d], int32(mi))
		}
	}
	return s
}

// window returns buf[from:] with its capacity cut to its length, so later
// appends to buf never write into it, or nil when it is empty.
func window(buf []int32, from int) []int32 {
	if from == len(buf) {
		return nil
	}
	return buf[from:len(buf):len(buf)]
}

// index returns the sub index of lattice node id and whether the node is in
// the sub-lattice.
func (s *sublattice) index(id int) (int, bool) {
	if id < 0 || id >= s.lat.Len() {
		return 0, false
	}
	r := s.lat.Rank(id)
	w, bit := r>>6, uint64(1)<<uint(r&63)
	return int(s.before[w]) + bits.OnesCount64(s.members[w]&(bit-1)), s.members[w]&bit != 0
}

// len returns the number of sub-lattice nodes.
func (s *sublattice) len() int { return len(s.nodeID) }

// node returns the lattice node behind a sub index.
func (s *sublattice) node(i int) *lattice.Node { return s.lat.Node(s.nodeID[i]) }

// descendantStats returns the total (with multiplicity across MTNs) and
// unique descendant counts of the MTN set — the quantities behind Figure 10
// and the reuse percentage of Figure 13.
func (s *sublattice) descendantStats() (total, unique int) {
	seen := newBitset(s.len())
	for _, m := range s.mtns {
		total += len(s.desc[m])
		for _, d := range s.desc[m] {
			seen.set(int(d))
		}
	}
	return total, seen.count()
}
