package lattice

import (
	"encoding/gob"
	"fmt"
	"io"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/clock"
)

// persistVersion guards the on-disk format.
const persistVersion = 1

// latticeGob is the serialized form. Children links are stored (recomputing
// them costs a canonical labeling per (node, leaf) pair, a large share of
// generation time); parents, levels, and the label index are rebuilt on
// load.
type latticeGob struct {
	Version   int
	Opts      Options
	SchemaSig string
	Stats     []LevelStats
	Nodes     []nodeGob
}

type nodeGob struct {
	Vertices []Vertex
	Edges    []JoinEdge
	Label    string
	Children []int
}

// Save writes the lattice so a later Load can skip Phase 0 entirely — the
// paper's point is precisely that this structure is computed once, offline.
func (l *Lattice) Save(w io.Writer) error {
	out := latticeGob{
		Version:   persistVersion,
		Opts:      l.opts,
		SchemaSig: l.schema.String(),
		Stats:     l.stats,
		Nodes:     make([]nodeGob, len(l.nodes)),
	}
	for i, n := range l.nodes {
		out.Nodes[i] = nodeGob{
			Vertices: n.Vertices,
			Edges:    n.Edges,
			Label:    n.Label,
			Children: n.Children,
		}
	}
	return gob.NewEncoder(w).Encode(&out)
}

// Load reads a lattice previously written by Save and re-attaches it to the
// schema it was generated from. The schema is validated structurally (its
// relations, columns, and edges must render identically), because node
// vertex names and edge IDs index into it.
func Load(r io.Reader, schema *catalog.Schema) (*Lattice, error) {
	loadStart := clock.Now()
	var in latticeGob
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("lattice: load: %w", err)
	}
	if in.Version != persistVersion {
		return nil, fmt.Errorf("lattice: load: format version %d, want %d", in.Version, persistVersion)
	}
	if got := schema.String(); got != in.SchemaSig {
		return nil, fmt.Errorf("lattice: load: schema does not match the one the lattice was generated from")
	}
	l := &Lattice{
		schema:  schema,
		opts:    in.Opts,
		lb:      newLabeler(schema, in.Opts.KeywordSlots),
		byLabel: make(map[string]int, len(in.Nodes)),
		stats:   in.Stats,
	}
	for i, ng := range in.Nodes {
		n := &Node{
			ID:       i,
			Vertices: ng.Vertices,
			Edges:    ng.Edges,
			Label:    ng.Label,
			Level:    len(ng.Vertices),
			Children: ng.Children,
			CopyMask: computeCopyMask(ng.Vertices),
		}
		if _, dup := l.byLabel[n.Label]; dup {
			return nil, fmt.Errorf("lattice: load: duplicate label %q", n.Label)
		}
		l.nodes = append(l.nodes, n)
		l.byLabel[n.Label] = i
		for len(l.levels) < n.Level {
			l.levels = append(l.levels, nil)
		}
		l.levels[n.Level-1] = append(l.levels[n.Level-1], i)
	}
	// Validate child links and rebuild parents.
	for _, n := range l.nodes {
		for _, c := range n.Children {
			if c < 0 || c >= len(l.nodes) {
				return nil, fmt.Errorf("lattice: load: node %d has child %d out of range", n.ID, c)
			}
			if l.nodes[c].Level != n.Level-1 {
				return nil, fmt.Errorf("lattice: load: node %d child %d level mismatch", n.ID, c)
			}
			l.nodes[c].Parents = append(l.nodes[c].Parents, n.ID)
		}
	}
	l.sortLevels()
	l.flatten()
	l.record("load", clock.Since(loadStart))
	return l, nil
}
