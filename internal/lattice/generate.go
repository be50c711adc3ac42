package lattice

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/clock"
)

// LevelStats records generation effort for one lattice level, the quantities
// Figure 9 of the paper reports.
type LevelStats struct {
	Level      int
	Generated  int // candidate extensions produced (including duplicates)
	Duplicates int // candidates discarded because an equal node existed
	Kept       int // nodes retained at this level
	Elapsed    time.Duration
}

// Options tunes lattice generation.
type Options struct {
	// MaxJoins is the paper's m: the lattice covers queries with up to
	// MaxJoins joins (MaxJoins+1 relations).
	MaxJoins int
	// KeywordSlots is the number of keyword copies R1..R_KeywordSlots kept
	// per text-bearing relation. The paper's Algorithm 1 uses MaxJoins+1
	// (the default, when zero); capping it at the maximum keyword-query
	// length actually served (3 in the paper's workload) shrinks the
	// lattice without changing any query the system can answer.
	KeywordSlots int
	// CopiesForTextlessRelations makes relations without text columns also
	// receive keyword copies, as in the literal Algorithm 1. Keywords can
	// never bind to such relations, so those nodes are pruned by every
	// query; the default (false) omits them offline, which is what keeps
	// the lattice near the node counts the paper reports for DBLife, whose
	// nine relationship tables carry no text.
	CopiesForTextlessRelations bool
	// Workers bounds the goroutines used to extend and label candidate
	// trees; 0 means GOMAXPROCS. The result is identical for any worker
	// count (candidates are merged in a deterministic order), so
	// parallelism only changes wall time — a 7-level DBLife lattice is
	// dominated by canonical-labeling work that parallelizes well.
	Workers int
}

// Lattice is the offline structure of Phase 0: every join-query template
// over the schema with up to MaxJoins joins, organized by the sub-query
// partial order. It is immutable after Generate and safe for concurrent use.
type Lattice struct {
	schema *catalog.Schema
	opts   Options
	lb     *labeler

	allow func(rel string, copy int) bool

	nodes   []*Node
	byLabel map[string]int
	// levels[k] lists node IDs at level k+1 ordered by label; after
	// flatten, each is a window of order.
	levels [][]int
	stats  []LevelStats

	// Derived per-node arrays for the online phases (see flatten), built
	// once the nodes are final and never written again.
	//
	// order lists node IDs in (level, label) order and rank is its
	// inverse. kwCodes[kwStart[id]:kwStart[id+1]] are node id's
	// keyword-bound vertices, each coded (copy-1)*|relations| + relation
	// index, and kwMask[id] is the node's CopyMask.
	order   []int
	rank    []int32
	kwStart []int32
	kwCodes []int32
	kwMask  []uint64
}

// Generate builds the lattice with the paper's default options: keyword
// slots 1..maxJoins+1 on every text-bearing relation, plus the free copy R0
// everywhere.
func Generate(schema *catalog.Schema, maxJoins int) (*Lattice, error) {
	return GenerateOpts(schema, Options{MaxJoins: maxJoins})
}

// admits consults the admission callback for keyword copies.
func (l *Lattice) admits(rel string, copy int) bool {
	return copy == 0 || l.allow == nil || l.allow(rel, copy)
}

// copies returns the copy indexes a relation participates with: always the
// free copy 0, plus keyword slots when the relation can contain keywords.
func (l *Lattice) copies(rel string) int {
	r, _ := l.schema.Relation(rel)
	if l.opts.CopiesForTextlessRelations || (r != nil && len(r.TextColumns()) > 0) {
		return l.opts.KeywordSlots
	}
	return 0
}

// GenerateOpts runs Algorithm 1: seed the base level with relation copies,
// then repeatedly extend each tree by one schema-graph edge to a fresh
// relation copy, eliminating duplicates via canonical labeling (Algorithm 2),
// and finally link each node to its leaf-removed children.
func GenerateOpts(schema *catalog.Schema, opts Options) (*Lattice, error) {
	return generate(schema, opts, nil)
}

// GenerateRestricted is GenerateOpts with a per-(relation, copy) admission
// callback. It exists for the online candidate-network baseline: a classical
// KWS-S system builds join trees at query time over only the tuple sets the
// current keywords bind, which is exactly this generation restricted by the
// Phase 1 bindings. The callback is consulted for keyword copies (copy >= 1)
// only; free tuple sets are always admitted.
func GenerateRestricted(schema *catalog.Schema, opts Options, allow func(rel string, copy int) bool) (*Lattice, error) {
	return generate(schema, opts, allow)
}

func generate(schema *catalog.Schema, opts Options, allow func(rel string, copy int) bool) (*Lattice, error) {
	if opts.MaxJoins < 0 {
		return nil, fmt.Errorf("lattice: maxJoins must be >= 0, got %d", opts.MaxJoins)
	}
	if len(schema.Relations()) == 0 {
		return nil, fmt.Errorf("lattice: schema has no relations")
	}
	if opts.KeywordSlots == 0 {
		opts.KeywordSlots = opts.MaxJoins + 1
	}
	if opts.KeywordSlots < 1 || opts.KeywordSlots > 62 {
		return nil, fmt.Errorf("lattice: keyword slots %d out of range [1, 62]", opts.KeywordSlots)
	}
	l := &Lattice{
		schema:  schema,
		opts:    opts,
		allow:   allow,
		lb:      newLabeler(schema, opts.KeywordSlots),
		byLabel: make(map[string]int),
	}
	buildStart := clock.Now()

	// Base level: single-vertex nodes. Copy 0 is the free tuple set R0 the
	// paper maintains in addition to the keyword copies R1..Rm+1.
	start := clock.Now()
	var base []*Node
	for _, name := range schema.RelationNames() {
		for c := 0; c <= l.copies(name); c++ {
			if !l.admits(name, c) {
				continue
			}
			base = append(base, &Node{Vertices: []Vertex{{Rel: name, Copy: c}}, Level: 1})
		}
	}
	st := LevelStats{Level: 1, Generated: len(base)}
	for _, n := range base {
		if l.add(n) {
			st.Kept++
		} else {
			st.Duplicates++
		}
	}
	st.Elapsed = clock.Since(start)
	l.stats = append(l.stats, st)

	// Higher levels: extend every vertex of every level-(k-1) node along
	// every incident schema edge to every copy of the opposite relation.
	// Workers label candidate trees in parallel; the single-threaded merge
	// below keeps node IDs and duplicate counts deterministic.
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for level := 2; level <= opts.MaxJoins+1; level++ {
		start = clock.Now()
		st = LevelStats{Level: level}
		prev := l.levels[level-2]
		// Buckets are indexed by source node so the merge replays the exact
		// candidate order sequential generation would produce, making the
		// lattice bit-identical for any worker count.
		buckets := make([][]*Node, len(prev))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(prev); i += workers {
					g := l.nodes[prev[i]]
					var out []*Node
					for vi := range g.Vertices {
						for _, ext := range l.extendAt(g, vi) {
							ext.Label = l.lb.canonicalLabel(ext)
							out = append(out, ext)
						}
					}
					buckets[i] = out
				}
			}(w)
		}
		wg.Wait()
		for _, bucket := range buckets {
			for _, ext := range bucket {
				st.Generated++
				if l.addLabeled(ext) {
					st.Kept++
				} else {
					st.Duplicates++
				}
			}
		}
		st.Elapsed = clock.Since(start)
		l.stats = append(l.stats, st)
	}

	l.link(workers)
	l.sortLevels()
	l.flatten()
	l.record("generate", clock.Since(buildStart))
	return l, nil
}

// add registers the node if its canonical label is new, assigning its ID,
// label, level, and copy mask. It reports whether the node was kept.
func (l *Lattice) add(n *Node) bool {
	n.Label = l.lb.canonicalLabel(n)
	return l.addLabeled(n)
}

// addLabeled is add for a node whose Label is already computed (the parallel
// generation path labels candidates on worker goroutines).
func (l *Lattice) addLabeled(n *Node) bool {
	if _, dup := l.byLabel[n.Label]; dup {
		return false
	}
	n.ID = len(l.nodes)
	n.Level = len(n.Vertices)
	n.CopyMask = computeCopyMask(n.Vertices)
	l.nodes = append(l.nodes, n)
	l.byLabel[n.Label] = n.ID
	for len(l.levels) < n.Level {
		l.levels = append(l.levels, nil)
	}
	l.levels[n.Level-1] = append(l.levels[n.Level-1], n.ID)
	return true
}

// extendAt is the paper's ExtendGraph: all one-edge extensions of g anchored
// at vertex vi. Each extension joins a fresh copy of the relation on the
// opposite end of a schema edge incident to vi's relation; copies already in
// the tree are skipped (candidate networks are trees).
func (l *Lattice) extendAt(g *Node, vi int) []*Node {
	rel := g.Vertices[vi].Rel
	var out []*Node
	for _, eid := range l.schema.Incident(rel) {
		e := l.schema.Edges()[eid]
		// For a self-edge (From == To) the anchor can play either side.
		var orientations []bool // anchor is the From side?
		switch {
		case e.From == rel && e.To == rel:
			orientations = []bool{true, false}
		case e.From == rel:
			orientations = []bool{true}
		default:
			orientations = []bool{false}
		}
		for _, anchorFrom := range orientations {
			other := e.To
			if !anchorFrom {
				other = e.From
			}
			for c := 0; c <= l.copies(other); c++ {
				if !l.admits(other, c) || g.HasVertex(other, c) {
					continue
				}
				vs := make([]Vertex, len(g.Vertices), len(g.Vertices)+1)
				copy(vs, g.Vertices)
				vs = append(vs, Vertex{Rel: other, Copy: c})
				es := make([]JoinEdge, len(g.Edges), len(g.Edges)+1)
				copy(es, g.Edges)
				es = append(es, JoinEdge{A: vi, B: len(vs) - 1, EdgeID: eid, AFrom: anchorFrom})
				out = append(out, &Node{Vertices: vs, Edges: es})
			}
		}
	}
	return out
}

// link computes the child/parent relation: the children of a node are the
// sub-networks obtained by removing one leaf. Distinct leaves always yield
// distinct children because vertices are distinct (rel, copy) pairs. Child
// labels are pure functions of each node, so they are computed in parallel;
// the link pass itself is sequential.
func (l *Lattice) link(workers int) {
	childLabels := make([][]string, len(l.nodes))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(l.nodes); i += workers {
				n := l.nodes[i]
				if n.Level == 1 {
					continue
				}
				leaves := n.leaves()
				labels := make([]string, len(leaves))
				for j, li := range leaves {
					vs, es := n.removeLeaf(li)
					labels[j] = l.lb.canonicalLabel(&Node{Vertices: vs, Edges: es})
				}
				childLabels[i] = labels
			}
		}(w)
	}
	wg.Wait()
	for i, n := range l.nodes {
		for _, childLabel := range childLabels[i] {
			cid, ok := l.byLabel[childLabel]
			if !ok {
				// Cannot happen: every sub-tree is generated by Algorithm 1.
				panic(fmt.Sprintf("lattice: missing child %q of %q", childLabel, n.Label))
			}
			n.Children = append(n.Children, cid)
			l.nodes[cid].Parents = append(l.nodes[cid].Parents, n.ID)
		}
	}
	for _, n := range l.nodes {
		sort.Ints(n.Children)
		sort.Ints(n.Parents)
	}
}

// sortLevels orders each level's node IDs by label for deterministic output.
func (l *Lattice) sortLevels() {
	for _, ids := range l.levels {
		sort.Slice(ids, func(i, j int) bool {
			return l.nodes[ids[i]].Label < l.nodes[ids[j]].Label
		})
	}
}

// Schema returns the schema graph the lattice was generated from.
func (l *Lattice) Schema() *catalog.Schema { return l.schema }

// MaxJoins returns the join bound m; the lattice has m+1 levels.
func (l *Lattice) MaxJoins() int { return l.opts.MaxJoins }

// KeywordSlots returns the number of keyword copies per text relation, the
// maximum keyword-query length the lattice supports.
func (l *Lattice) KeywordSlots() int { return l.opts.KeywordSlots }

// Len returns the number of nodes.
func (l *Lattice) Len() int { return len(l.nodes) }

// Node returns the node with the given ID.
func (l *Lattice) Node(id int) *Node { return l.nodes[id] }

// NodeByLabel looks a node up by canonical label.
func (l *Lattice) NodeByLabel(label string) (*Node, bool) {
	id, ok := l.byLabel[label]
	if !ok {
		return nil, false
	}
	return l.nodes[id], true
}

// Level returns the node IDs at the given level (1-based), ordered by label.
// The slice must not be modified.
func (l *Lattice) Level(k int) []int {
	if k < 1 || k > len(l.levels) {
		return nil
	}
	return l.levels[k-1]
}

// Levels returns the number of levels (maxJoins + 1).
func (l *Lattice) Levels() int { return len(l.levels) }

// Stats returns per-level generation statistics (Figure 9's quantities).
func (l *Lattice) Stats() []LevelStats { return l.stats }

// CanonicalLabel computes the canonical labeling of an arbitrary join tree
// over the lattice's schema. It validates the tree first. Exposed for tests
// and for tools that need to look up a hand-built tree.
func (l *Lattice) CanonicalLabel(vs []Vertex, es []JoinEdge) (string, error) {
	if err := validateTree(vs, es); err != nil {
		return "", err
	}
	for _, v := range vs {
		if _, ok := l.schema.Relation(v.Rel); !ok {
			return "", fmt.Errorf("lattice: unknown relation %q", v.Rel)
		}
		if v.Copy < 0 || v.Copy > l.copies(v.Rel) {
			return "", fmt.Errorf("lattice: copy %d out of range [0, %d] for %s", v.Copy, l.copies(v.Rel), v.Rel)
		}
	}
	for _, e := range es {
		if e.EdgeID < 0 || e.EdgeID >= len(l.schema.Edges()) {
			return "", fmt.Errorf("lattice: edge id %d out of range", e.EdgeID)
		}
	}
	return l.lb.canonicalLabel(&Node{Vertices: vs, Edges: es}), nil
}
