package lattice

import "math/bits"

// Phases 1 and 2 run on every keyword query and touch every node, so they
// read the lattice through flat per-node arrays rather than the *Node
// values: pruning streams one contiguous list of keyword-vertex codes
// instead of chasing a pointer and a Vertices slice per node and looking
// each vertex up in a string-keyed map.

// flatten builds the derived arrays from the final nodes and sorted levels:
// one pass over the nodes, and no second sort, because the rank order is
// the concatenation of the label-sorted levels.
func (l *Lattice) flatten() {
	l.order = make([]int, 0, len(l.nodes))
	for k, ids := range l.levels {
		from := len(l.order)
		l.order = append(l.order, ids...)
		l.levels[k] = l.order[from:len(l.order):len(l.order)]
	}
	l.rank = make([]int32, len(l.nodes))
	for r, id := range l.order {
		l.rank[id] = int32(r)
	}

	nRel := len(l.lb.relIdx)
	l.kwStart = make([]int32, len(l.nodes)+1)
	l.kwMask = make([]uint64, len(l.nodes))
	for id, n := range l.nodes {
		for _, v := range n.Vertices {
			if v.Copy > 0 {
				l.kwCodes = append(l.kwCodes, int32((v.Copy-1)*nRel+l.lb.relIdx[v.Rel]))
			}
		}
		l.kwStart[id+1] = int32(len(l.kwCodes))
		l.kwMask[id] = n.CopyMask
	}
}

// Rank returns the node's position in (level, label) order: the order of
// Level(1), Level(2), ... concatenated.
func (l *Lattice) Rank(id int) int { return int(l.rank[id]) }

// AtRank returns the ID of the node at position r in (level, label) order.
func (l *Lattice) AtRank(r int) int { return l.order[r] }

// Bindings is a query's keyword-to-relation binding in the lattice's
// keyword-vertex coding: bit (j-1)*|relations| + r is set when the query's
// j-th keyword occurs in relation r, relations indexed in
// Schema().RelationNames() order.
type Bindings []uint64

// Bind encodes Phase 1's keyword bindings: tables[j-1] lists the relations
// the query's j-th keyword occurs in. Relations outside the schema and
// keywords beyond KeywordSlots bind nothing.
func (l *Lattice) Bind(tables [][]string) Bindings {
	nRel := len(l.lb.relIdx)
	b := make(Bindings, (l.opts.KeywordSlots*nRel+63)/64)
	for j, ts := range tables[:min(len(tables), l.opts.KeywordSlots)] {
		for _, t := range ts {
			if r, ok := l.lb.relIdx[t]; ok {
				code := j*nRel + r
				b[code>>6] |= 1 << uint(code&63)
			}
		}
	}
	return b
}

// NodeSet is a set of lattice node IDs, one bit per node.
type NodeSet []uint64

// Has reports whether the set contains node id.
func (s NodeSet) Has(id int) bool { return s[id>>6]&(1<<uint(id&63)) != 0 }

// Len returns the number of nodes in the set.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Prune is Phase 1's pruning (§2.3): a node survives iff every keyword copy
// j among its vertices sits on a relation the query's j-th keyword occurs
// in. Copies beyond the query's keywords are never bound, so nodes carrying
// them are pruned too. The survivors are downward closed.
//
//kws:hotpath
func (l *Lattice) Prune(b Bindings) NodeSet {
	s := make(NodeSet, (len(l.nodes)+63)/64)
	codes, start := l.kwCodes, l.kwStart
	for id := range l.nodes {
		alive := true
		for _, c := range codes[start[id]:start[id+1]] {
			if b[c>>6]&(1<<uint(c&63)) == 0 {
				alive = false
				break
			}
		}
		if alive {
			s[id>>6] |= 1 << uint(id&63)
		}
	}
	return s
}

// MinimalTotal is Phase 2 (§2.4): the IDs, ascending, of the nodes in s
// that are total for an n-keyword query (copies 1..n all occur) and have no
// total child. These are the query's Minimal Total Nodes when s is Prune's
// result: the children of a survivor survive too.
func (l *Lattice) MinimalTotal(s NodeSet, n int) []int {
	if n <= 0 {
		return nil
	}
	want := (uint64(1)<<uint(n+1) - 1) &^ 1 // bits 1..n
	var out []int
	for wi, w := range s {
		for ; w != 0; w &= w - 1 {
			id := wi<<6 + bits.TrailingZeros64(w)
			if l.kwMask[id]&want != want {
				continue
			}
			minimal := true
			for _, c := range l.nodes[id].Children {
				if l.kwMask[c]&want == want {
					minimal = false
					break
				}
			}
			if minimal {
				out = append(out, id)
			}
		}
	}
	return out
}
