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
//
// A sublattice is immutable once built, but for its memos: sbh, SBH's
// decision paths, and keyMemo, the probe-key tables of the keyword tuples
// run on it. The per-binding cache shares one between every concurrent run
// of a binding. Its adjacency lists are CSR pairs, so it is a handful of
// pointer-free arrays whatever its size.
type sublattice struct {
	lat    *lattice.Lattice
	nodeID []int // sub index -> lattice node ID
	level  []int // sub index -> lattice level

	children csr // sub index -> child sub indexes
	parents  csr // sub index -> parent sub indexes (within sub)

	desc csr // strict descendants, sorted
	asc  csr // strict ancestors within sub, sorted: the transpose of desc

	mtns []int // sub indexes of the MTNs, sorted

	// regions[x] counts the MTNs whose Desc+ holds x: SBH's weight of x
	// while x is unknown (sbh.go).
	regions []int32

	maxLevel int

	// members has bit r set when the lattice node of rank r is in the
	// sub-lattice, and before[w] counts the members below word w: sub
	// indexes follow rank, so a node's sub index is the number of members
	// of lower rank (see index).
	members bitset
	before  []int32

	// sbh records the decision paths of completed SBH runs (sbh.go).
	sbh sbhMemo
	// keyMemo records a probe-key table per keyword tuple (bindcache.go).
	keyMemo keyMemo
}

// csr is an adjacency in compressed sparse row form: row i is
// to[off[i]:off[i+1]].
type csr struct {
	off []int32 // len rows+1
	to  []int32
}

// row returns row i.
func (c *csr) row(i int) []int32 { return c.to[c.off[i]:c.off[i+1]] }

// bytes returns the size of the two arrays.
func (c *csr) bytes() int { return 4 * (cap(c.off) + cap(c.to)) }

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
	s.children = csr{off: make([]int32, n+1), to: make([]int32, 0, links)}
	s.parents = csr{off: make([]int32, n+1), to: make([]int32, 0, links)}
	for i, id := range s.nodeID {
		node := lat.Node(id)
		s.level[i] = node.Level
		s.maxLevel = max(s.maxLevel, node.Level)
		for _, c := range node.Children {
			ci, _ := s.index(c)
			s.children.to = append(s.children.to, int32(ci))
		}
		s.children.off[i+1] = int32(len(s.children.to))
		for _, p := range node.Parents {
			if pi, ok := s.index(p); ok {
				s.parents.to = append(s.parents.to, int32(pi))
			}
		}
		s.parents.off[i+1] = int32(len(s.parents.to))
	}

	// Strict descendants, bottom-up: desc(x) = U_c ({c} U desc(c)), gathered
	// in a scratch bitset and read back in ascending order.
	scratch := newBitset(n)
	var to []int32
	s.desc.off = make([]int32, n+1)
	for i := 0; i < n; i++ { // index order is level order
		for _, c := range s.children.row(i) {
			scratch.set(int(c))
			for _, d := range to[s.desc.off[c]:s.desc.off[c+1]] {
				scratch.set(int(d))
			}
		}
		to = scratch.drain(to)
		s.desc.off[i+1] = int32(len(to))
	}
	// The lists outlive the build in the per-binding cache: keep no growth
	// slack.
	s.desc.to = append(make([]int32, 0, len(to)), to...)

	// Strict ancestors are the transpose of desc: x is an ancestor of y iff
	// y is a descendant of x.
	s.asc = transpose(n, len(s.desc.to), func(emit func(row int, col int32)) {
		for x := 0; x < n; x++ {
			for _, y := range s.desc.row(x) {
				emit(int(y), int32(x))
			}
		}
	})

	for _, id := range mtnIDs {
		m, _ := s.index(id)
		s.mtns = append(s.mtns, m)
	}
	sort.Ints(s.mtns)

	s.regions = make([]int32, n)
	for _, m := range s.mtns {
		s.regions[m]++
		for _, d := range s.desc.row(m) {
			s.regions[d]++
		}
	}
	return s
}

// transpose builds an n-row CSR holding the total (row, col) pairs that gen
// emits, in emission order within each row. gen runs twice: once to size
// the rows, once to fill them.
func transpose(n, total int, gen func(emit func(row int, col int32))) csr {
	c := csr{off: make([]int32, n+1), to: make([]int32, total)}
	gen(func(row int, _ int32) { c.off[row+1]++ })
	for i := 0; i < n; i++ {
		c.off[i+1] += c.off[i]
	}
	next := make([]int32, n)
	copy(next, c.off)
	gen(func(row int, col int32) {
		c.to[next[row]] = col
		next[row]++
	})
	return c
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
		total += len(s.desc.row(m))
		for _, d := range s.desc.row(m) {
			seen.set(int(d))
		}
	}
	return total, seen.count()
}

// bytes returns the sublattice's size: its arrays plus the struct.
func (s *sublattice) bytes() int {
	const sublatticeHeader = 17 * 24 // the struct: slice headers, scalars and the memos
	return sublatticeHeader + 8*(cap(s.nodeID)+cap(s.level)+cap(s.mtns)+cap(s.members)) +
		4*(cap(s.before)+cap(s.regions)) + s.children.bytes() + s.parents.bytes() +
		s.desc.bytes() + s.asc.bytes()
}
