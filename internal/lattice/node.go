// Package lattice implements Phase 0 of the paper: the offline generation of
// the lattice of join-query templates over a schema graph (Algorithm 1),
// deduplicated with a canonical tree labeling (Algorithm 2).
//
// Each lattice node is a join tree over relation copies. Copy 0 of a relation
// is the free tuple set (no keyword predicate, the paper's R0); copy j >= 1
// carries the predicate of the j-th keyword of the user's query, which gives
// the 1-1 mapping between lattice nodes and SQL query templates that the
// paper's Example 2 illustrates (the node R1 JOIN S2 is the template
// "... WHERE R1 matches k1 AND S2 matches k2").
//
// Node N is a descendant of node N' exactly when N's join tree is a connected
// sub-network of N”s; children differ from parents by one leaf vertex, and
// every connected sub-network is reachable by repeated leaf removal.
package lattice

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"kwsdbg/internal/catalog"
)

// Vertex is one occurrence of a relation copy in a join tree.
type Vertex struct {
	Rel  string
	Copy int // 0 = free tuple set; j >= 1 = j-th keyword's predicate
}

// String renders the vertex as Rel#copy, e.g. "Item#0" or "Color#1".
func (v Vertex) String() string { return v.Rel + "#" + strconv.Itoa(v.Copy) }

// JoinEdge is one key-foreign-key join between two vertices of a node.
// A and B index into the node's Vertices; EdgeID indexes the schema's Edges.
// AFrom records whether vertex A plays the foreign-key ("From") side.
type JoinEdge struct {
	A, B   int
	EdgeID int
	AFrom  bool
}

// Node is one lattice node: a join tree plus its position in the lattice.
type Node struct {
	ID       int
	Vertices []Vertex
	Edges    []JoinEdge
	// Label is the canonical labeling of the tree (Algorithm 2); two nodes
	// are the same query template iff their labels are equal.
	Label string
	// Level is the number of vertices (level 1 = single-table queries).
	Level int
	// Children are the IDs of the leaf-removed sub-networks; Parents the
	// reverse links. Both are sorted.
	Children []int
	Parents  []int
	// CopyMask has bit j set when some vertex has Copy == j (j >= 1).
	// Bit 0 is set when the node contains a free tuple set.
	CopyMask uint64
}

// HasVertex reports whether the node contains the (rel, copy) vertex.
func (n *Node) HasVertex(rel string, copy int) bool {
	for _, v := range n.Vertices {
		if v.Rel == rel && v.Copy == copy {
			return true
		}
	}
	return false
}

// IsTotal reports whether the node covers every keyword of an n-keyword
// query, i.e. copies 1..nKeywords all occur among its vertices.
func (n *Node) IsTotal(nKeywords int) bool {
	if nKeywords <= 0 {
		return false
	}
	want := (uint64(1)<<uint(nKeywords+1) - 1) &^ 1 // bits 1..nKeywords
	return n.CopyMask&want == want
}

// IsCandidateNetwork reports whether the node could be produced as a
// candidate network by a classical KWS-S system for *some* keyword query:
// every leaf must be keyword-bound and be the only vertex carrying its
// keyword (DISCOVER's minimality rule, relative to the node's own keyword
// set). Maximal alive sub-queries that fail this test are invisible to the
// Return Nothing workflow of §3.8 — the developer cannot reach them by
// re-submitting keyword subsets, which is the paper's incompleteness
// argument made checkable.
func (n *Node) IsCandidateNetwork() bool {
	copies := make(map[int]int, len(n.Vertices))
	for _, v := range n.Vertices {
		copies[v.Copy]++
	}
	deg := make([]int, len(n.Vertices))
	for _, e := range n.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	for i, v := range n.Vertices {
		if deg[i] <= 1 && (v.Copy == 0 || copies[v.Copy] > 1) {
			return false
		}
	}
	return true
}

// String renders the node compactly, e.g. "Color#1-Item#0-PType#2": the
// vertex renderings in sorted order, so that the result does not depend on
// generation order. It names the tuple sets involved, not the tree shape
// (the SQL rendering carries the join structure). Reports label every node
// they list this way, so it allocates only the result.
func (n *Node) String() string {
	var orderBuf [16]int
	order := orderBuf[:0]
	size := 0
	for i, v := range n.Vertices {
		if i > 0 {
			size++ // the separator
		}
		order = append(order, i)
		size += len(v.Rel) + len(copySuffix(new([24]byte), v.Copy))
		// Insertion sort: nodes have a handful of vertices.
		for j := len(order) - 1; j > 0 && vertexLess(v, n.Vertices[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	for k, i := range order {
		if k > 0 {
			sb.WriteByte('-')
		}
		v := n.Vertices[i]
		sb.WriteString(v.Rel)
		sb.Write(copySuffix(new([24]byte), v.Copy))
	}
	return sb.String()
}

// copySuffix renders the "#copy" part of a vertex's String into buf.
func copySuffix(buf *[24]byte, copy int) []byte {
	return strconv.AppendInt(append(buf[:0], '#'), int64(copy), 10)
}

// vertexLess orders vertices as their String renderings sort, without
// building them.
func vertexLess(a, b Vertex) bool {
	var bufA, bufB [24]byte
	sufA, sufB := copySuffix(&bufA, a.Copy), copySuffix(&bufB, b.Copy)
	at := func(rel string, suffix []byte, i int) byte {
		if i < len(rel) {
			return rel[i]
		}
		return suffix[i-len(rel)]
	}
	la, lb := len(a.Rel)+len(sufA), len(b.Rel)+len(sufB)
	for i := 0; i < la && i < lb; i++ {
		if ca, cb := at(a.Rel, sufA, i), at(b.Rel, sufB, i); ca != cb {
			return ca < cb
		}
	}
	return la < lb
}

// labeler computes canonical labelings for join trees over one schema.
// Vertex IDs are (relation index, copy); edge IDs are schema edge indexes
// plus an orientation bit, so that isomorphic trees — and only those — share
// a labeling.
type labeler struct {
	schema    *catalog.Schema
	relIdx    map[string]int
	maxCopies int
}

func newLabeler(schema *catalog.Schema, keywordSlots int) *labeler {
	names := schema.RelationNames()
	idx := make(map[string]int, len(names))
	for i, name := range names {
		idx[name] = i
	}
	return &labeler{schema: schema, relIdx: idx, maxCopies: keywordSlots + 1}
}

func (lb *labeler) vertexID(v Vertex) int {
	return lb.relIdx[v.Rel]*lb.maxCopies + v.Copy
}

// edgeCode encodes the edge label as seen when traversing from vertex u
// across edge e: the schema edge ID with a direction bit (whether u is the
// From side), so that e.g. coauthor.p1->Person and coauthor.p2->Person
// label differently, and traversal direction is canonicalized.
func (lb *labeler) edgeCode(n *Node, e JoinEdge, u int) int {
	uFrom := e.AFrom == (e.A == u)
	code := e.EdgeID * 2
	if uFrom {
		code++
	}
	return code
}

// canonicalLabel implements Algorithm 2. Because vertices within a node are
// distinct (rel, copy) pairs, vertex IDs are unique, so the minimum-ID vertex
// is the single canonical root.
func (lb *labeler) canonicalLabel(n *Node) string {
	if len(n.Vertices) == 0 {
		return "[]"
	}
	adj := make([][]int, len(n.Vertices)) // vertex -> edge indexes
	for ei, e := range n.Edges {
		adj[e.A] = append(adj[e.A], ei)
		adj[e.B] = append(adj[e.B], ei)
	}
	root := 0
	for i := range n.Vertices {
		if lb.vertexID(n.Vertices[i]) < lb.vertexID(n.Vertices[root]) {
			root = i
		}
	}
	var code func(u, parentEdge int) string
	code = func(u, parentEdge int) string {
		var sb strings.Builder
		sb.WriteByte('[')
		sb.WriteString(strconv.Itoa(lb.vertexID(n.Vertices[u])))
		var kids []string
		for _, ei := range adj[u] {
			if ei == parentEdge {
				continue
			}
			e := n.Edges[ei]
			v := e.A
			if v == u {
				v = e.B
			}
			kids = append(kids, strconv.Itoa(lb.edgeCode(n, e, u))+code(v, ei))
		}
		if len(kids) > 0 {
			sb.WriteByte('|')
			sort.Strings(kids)
			for _, k := range kids {
				sb.WriteString(k)
			}
		}
		sb.WriteByte(']')
		return sb.String()
	}
	return code(root, -1)
}

// leaves returns the vertex indexes of degree <= 1 (single-vertex nodes have
// one leaf: the vertex itself).
func (n *Node) leaves() []int {
	deg := make([]int, len(n.Vertices))
	for _, e := range n.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	var out []int
	for i, d := range deg {
		if d <= 1 {
			out = append(out, i)
		}
	}
	return out
}

// removeLeaf returns the vertices and edges of the sub-network obtained by
// deleting leaf vertex li. The caller guarantees li is a leaf of a node with
// at least two vertices.
func (n *Node) removeLeaf(li int) ([]Vertex, []JoinEdge) {
	vs := make([]Vertex, 0, len(n.Vertices)-1)
	remap := make([]int, len(n.Vertices))
	for i, v := range n.Vertices {
		if i == li {
			remap[i] = -1
			continue
		}
		remap[i] = len(vs)
		vs = append(vs, v)
	}
	es := make([]JoinEdge, 0, len(n.Edges)-1)
	for _, e := range n.Edges {
		if e.A == li || e.B == li {
			continue
		}
		es = append(es, JoinEdge{A: remap[e.A], B: remap[e.B], EdgeID: e.EdgeID, AFrom: e.AFrom})
	}
	return vs, es
}

// computeCopyMask derives the copy bitmask from the vertices.
func computeCopyMask(vs []Vertex) uint64 {
	var mask uint64
	for _, v := range vs {
		if v.Copy < 64 {
			mask |= 1 << uint(v.Copy)
		}
	}
	return mask
}

// validateTree checks that the vertices and edges form a tree with distinct
// (rel, copy) vertices. Used by tests and by NewNode.
func validateTree(vs []Vertex, es []JoinEdge) error {
	if len(vs) == 0 {
		return fmt.Errorf("lattice: empty vertex set")
	}
	if len(es) != len(vs)-1 {
		return fmt.Errorf("lattice: %d edges for %d vertices (not a tree)", len(es), len(vs))
	}
	seen := make(map[Vertex]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return fmt.Errorf("lattice: duplicate vertex %s", v)
		}
		seen[v] = true
	}
	// Connectivity via union-find.
	parent := make([]int, len(vs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range es {
		if e.A < 0 || e.A >= len(vs) || e.B < 0 || e.B >= len(vs) {
			return fmt.Errorf("lattice: edge endpoints out of range")
		}
		ra, rb := find(e.A), find(e.B)
		if ra == rb {
			return fmt.Errorf("lattice: cycle through edge %d-%d", e.A, e.B)
		}
		parent[ra] = rb
	}
	return nil
}
