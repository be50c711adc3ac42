// Package bitprobe answers aliveness probes with bitmap semi-joins instead
// of SQL: "does this join tree yield at least one tuple?" is a set-algebra
// question, and every set it needs is already in the system — per-keyword
// candidate row sets from the inverted index, and foreign-key row lookups
// from the storage layer's int indexes.
//
// The evaluator compiles each probe's join tree once into a rooted plan
// (root = a keyword-bound vertex), materializes per-(table, keyword)
// candidate bitmaps from invidx postings exactly as the SQL predicate reads
// them (per column: every token present; across columns: OR), and reduces
// the tree bottom-up with semi-joins along the catalog's FK edges — the
// classic full reducer for acyclic joins. After the reduction, reduced[v]
// holds precisely the rows of v extendable to a full match of v's subtree,
// so the probe early-exits on the first root candidate whose children all
// have surviving partners.
//
// Every cached artifact — candidate bitmaps and per-probe reduction
// verdicts — is stamped against internal/vervec exactly like probe verdicts
// are: candidates stale on the table-AND-all-terms conjunction (an INSERT
// joins the set only if it carries every token), verdicts on their
// table-footprint stamp (any insert into a join-tree table can flip dead to
// alive). The warm path is therefore one version-vector Seq read; a write
// that intersects the footprint forces a fresh reduction, which is how the
// suspect -> re-probe -> repair machinery of the probe cache keeps working
// unchanged above this path.
//
// Shapes the evaluator cannot cover — no keyword-bound vertex, a missing
// table, non-INT join columns, a cyclic edge set, or candidate sets that
// churn faster than they can be stamped — report a fallback cause and the
// oracle sends the probe down the prepared-SQL path, which remains the
// oracle of record (the property tests compare the two byte for byte).
package bitprobe

import (
	"sort"
	"sync"
	"sync/atomic"

	"kwsdbg/internal/bitset"
	"kwsdbg/internal/catalog"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/obs"
	"kwsdbg/internal/storage"
	"kwsdbg/internal/vervec"
)

// maxBuildAttempts bounds how often a candidate bitmap is rebuilt when
// writes keep staling it mid-build, mirroring the engine's replan bound;
// past it the probe falls back to SQL for this attempt.
const maxBuildAttempts = 8

// Evaluator is the bitset probe engine for one System. It is safe for
// concurrent Probe calls and caches across requests: plans and verdict
// memos are keyed by probe identity (the probe-cache key), candidate
// bitmaps by (table, keyword).
type Evaluator struct {
	eng *engine.Engine

	// plans caches compiled probe plans and their verdict memos, keyed by
	// probe identity string.
	plans sync.Map
	// cands caches candidate bitmaps, keyed by "table\x00keyword"; values
	// are *candEntry, single-flighted through their once.
	cands sync.Map
}

// New builds an evaluator over the engine's storage, index, and versions.
func New(eng *engine.Engine) *Evaluator { return &Evaluator{eng: eng} }

// Purge drops every cached plan, memo, and candidate bitmap; benchmarks use
// it to measure the cold path. Dropped bitmaps are left to the GC — a
// concurrent probe may still be reading them.
func (e *Evaluator) Purge() {
	e.plans.Range(func(k, _ any) bool { e.plans.Delete(k); return true })
	e.cands.Range(func(k, _ any) bool { e.cands.Delete(k); return true })
}

// pvert is one plan vertex: its table, keyword binding, and the join columns
// linking it to its parent in the rooted tree.
type pvert struct {
	rel     string
	tbl     *storage.Table
	keyword string // "" for a free vertex
	selfCol int    // column on this vertex joining to the parent
	parCol  int    // column on the parent joining to this vertex
	// bounded children have a keyword somewhere in their subtree and take
	// part in the semi-join reduction; free children are existence filters
	// checked per surviving parent row.
	bounded []int
	free    []int
}

// plan is a compiled probe: the rooted join tree plus the version-vector
// footprint its verdicts are stamped with.
type plan struct {
	ok    bool
	cause string // fallback cause when !ok
	// cFallback is the cause's pre-resolved fallback counter: a declined
	// plan is hit on every probe of its node, and CounterVec.With is too
	// slow for that path (lock + label-key build).
	cFallback *obs.Counter

	verts []pvert
	root  int
	// order is the bottom-up reduction order: every bounded non-root vertex,
	// children before parents.
	order []int
	// footTables is the sorted table-key footprint (vervec names) the
	// verdict memo is stamped with.
	footTables []string

	// memo is the latest reduction verdict with its stamp; nil until the
	// first successful evaluation.
	memo atomic.Pointer[verdictMemo]
}

// verdictMemo is one stamped reduction result. seq is the vector's Seq at
// stamp time: when it still matches, nothing anywhere has moved and the
// verdict is served with a single read; otherwise the per-name stamp decides.
type verdictMemo struct {
	seq   uint64
	stamp vervec.Stamp
	alive bool
}

// Probe answers the node's aliveness question on the bitset path. The key
// is the probe identity the oracle already computes (plans and memos are
// shared across isomorphic nodes through it). ok=false means the shape is
// not coverable — or churned too hard to stamp — and the caller must fall
// back to SQL; cause says why.
//
//kws:hotpath
func (e *Evaluator) Probe(node *lattice.Node, keywords []string, key string) (alive, ok bool, cause string) {
	p := e.plan(node, keywords, key)
	if !p.ok {
		p.cFallback.Inc()
		return false, false, p.cause
	}
	vv := e.eng.Versions()
	if m := p.memo.Load(); m != nil {
		seq := vv.Seq()
		if m.seq == seq {
			cMemoHit.Inc()
			return m.alive, true, ""
		}
		if !vv.Stale(m.stamp) {
			// Something moved, but nothing in this probe's footprint:
			// refresh the fast-path seq so the next probe is one read again.
			p.memo.CompareAndSwap(m, &verdictMemo{seq: seq, stamp: m.stamp, alive: m.alive})
			cMemoHit.Inc()
			return m.alive, true, ""
		}
	}
	// Stamp before reading any data: a write landing mid-reduction makes
	// the stored memo stale on the next probe instead of being vouched for.
	seq := vv.Seq()
	stamp := vv.Stamp(p.footTables)
	alive, ok, cause = e.evaluate(p)
	if !ok {
		cChurnFallback.Inc()
		return false, false, cause
	}
	p.memo.Store(&verdictMemo{seq: seq, stamp: stamp, alive: alive})
	cComputed.Inc()
	return alive, true, ""
}

// plan resolves (compiling on first use) the probe's plan.
func (e *Evaluator) plan(node *lattice.Node, keywords []string, key string) *plan {
	if v, loaded := e.plans.Load(key); loaded {
		return v.(*plan)
	}
	p := e.compile(node, keywords)
	if v, loaded := e.plans.LoadOrStore(key, p); loaded {
		return v.(*plan)
	}
	mPlans.Inc()
	return p
}

// compile roots the node's join tree at its first keyword-bound vertex and
// resolves every join edge to storage column indexes.
func (e *Evaluator) compile(node *lattice.Node, keywords []string) *plan {
	fail := func(cause string) *plan { return &plan{cause: cause, cFallback: mFallbacks.With(cause)} }
	n := len(node.Vertices)
	schema := e.eng.Database().Schema()
	p := &plan{verts: make([]pvert, n), root: -1}

	for i, v := range node.Vertices {
		pv := &p.verts[i]
		pv.rel = v.Rel
		pv.selfCol, pv.parCol = -1, -1
		tbl, okT := e.eng.Database().Table(v.Rel)
		if !okT {
			return fail("no_table")
		}
		pv.tbl = tbl
		if v.Copy >= 1 && v.Copy <= len(keywords) {
			rel, okR := schema.Relation(v.Rel)
			if !okR || len(rel.TextColumns()) == 0 {
				// The SQL path errors identically on render; falling back
				// keeps the two paths' error behavior byte-compatible.
				return fail("no_text_columns")
			}
			pv.keyword = keywords[v.Copy-1]
			if p.root < 0 {
				p.root = i
			}
		}
	}
	if p.root < 0 {
		return fail("unanchored")
	}
	if len(node.Edges) != n-1 {
		return fail("cyclic")
	}

	// Adjacency with per-endpoint column indexes resolved from the schema.
	type adj struct{ to, selfCol, toCol int }
	adjs := make([][]adj, n)
	for _, je := range node.Edges {
		edge := schema.Edges()[je.EdgeID]
		aCol, bCol := edge.FromCol, edge.ToCol
		if !je.AFrom {
			aCol, bCol = edge.ToCol, edge.FromCol
		}
		ai, bi, okCols := resolveIntCols(schema, node.Vertices[je.A].Rel, aCol, node.Vertices[je.B].Rel, bCol)
		if !okCols {
			return fail("join_type")
		}
		adjs[je.A] = append(adjs[je.A], adj{to: je.B, selfCol: ai, toCol: bi})
		adjs[je.B] = append(adjs[je.B], adj{to: je.A, selfCol: bi, toCol: ai})
	}

	// Root the tree with a BFS. With exactly n-1 edges, full reachability
	// proves the edge set is a tree; anything unreached means a cycle hides
	// elsewhere in a disconnected component.
	visited := make([]bool, n)
	visited[p.root] = true
	queue := []int{p.root}
	parentOrder := []int{}
	children := make([][]int, n)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		parentOrder = append(parentOrder, cur)
		for _, a := range adjs[cur] {
			if visited[a.to] {
				continue // the edge back to the parent
			}
			visited[a.to] = true
			cv := &p.verts[a.to]
			cv.selfCol, cv.parCol = a.toCol, a.selfCol
			children[cur] = append(children[cur], a.to)
			queue = append(queue, a.to)
		}
	}
	for i := 0; i < n; i++ {
		if !visited[i] {
			return fail("disconnected")
		}
	}

	// Classify subtrees: a subtree is bounded when it holds a keyword
	// anywhere; bounded children join the semi-join reduction, free ones
	// become per-row existence filters. parentOrder is BFS order, so
	// walking it backwards visits children before parents.
	subBounded := make([]bool, n)
	for i := len(parentOrder) - 1; i >= 0; i-- {
		vi := parentOrder[i]
		subBounded[vi] = p.verts[vi].keyword != ""
		for _, c := range children[vi] {
			if subBounded[c] {
				subBounded[vi] = true
			}
		}
	}
	for i := len(parentOrder) - 1; i >= 0; i-- {
		vi := parentOrder[i]
		for _, c := range children[vi] {
			if subBounded[c] {
				p.verts[vi].bounded = append(p.verts[vi].bounded, c)
			} else {
				p.verts[vi].free = append(p.verts[vi].free, c)
			}
		}
		if vi != p.root && subBounded[vi] {
			p.order = append(p.order, vi)
		}
	}

	// Footprint: every distinct table in the tree, sorted for determinism.
	seen := make(map[string]bool, n)
	for i := range p.verts {
		k := vervec.TableKey(p.verts[i].rel)
		if !seen[k] {
			seen[k] = true
			p.footTables = append(p.footTables, k)
		}
	}
	sort.Strings(p.footTables)

	p.ok = true
	return p
}

// resolveIntCols maps one join edge's column names to indexes in both
// relations and confirms both sides are INT (the storage layer's hash
// indexes only cover INT columns).
func resolveIntCols(schema *catalog.Schema, aRel, aCol, bRel, bCol string) (ai, bi int, ok bool) {
	ra, okA := schema.Relation(aRel)
	rb, okB := schema.Relation(bRel)
	if !okA || !okB {
		return 0, 0, false
	}
	ai, bi = ra.ColumnIndex(aCol), rb.ColumnIndex(bCol)
	if ai < 0 || bi < 0 {
		return 0, 0, false
	}
	if ra.Columns[ai].Type != catalog.Int || rb.Columns[bi].Type != catalog.Int {
		return 0, 0, false
	}
	return ai, bi, true
}

// candEntry is one cached candidate bitmap with its conjunction stamp: the
// set stales only when its table moved AND every keyword token moved,
// because a row joins the candidate set only if it carries all tokens.
type candEntry struct {
	once sync.Once
	bm   *bitset.Bitmap

	epoch    uint64
	tableKey string
	tableVal uint64
	termKeys []string
	termVals []uint64
}

// candidate resolves (building on first use) the bitmap of rows of rel whose
// text matches the keyword — per column all tokens, across columns OR —
// exactly the SQL CONTAINS disjunction the lattice renders. ok=false means
// the entry could not be kept fresh within maxBuildAttempts.
func (e *Evaluator) candidate(rel, keyword string) (*bitset.Bitmap, bool) {
	k := rel + "\x00" + keyword
	for attempt := 0; attempt < maxBuildAttempts; attempt++ {
		v, loaded := e.cands.LoadOrStore(k, &candEntry{})
		ent := v.(*candEntry)
		ent.once.Do(func() {
			ent.build(e.eng, rel, keyword)
			if loaded {
				mCandSets.With("rebuild").Inc()
			} else {
				mCandSets.With("build").Inc()
			}
		})
		if !ent.stale(e.eng.Versions()) {
			return ent.bm, true
		}
		// Stale: retire this entry and build a fresh one. CompareAndDelete
		// keeps a concurrent retirer from dropping the successor.
		e.cands.CompareAndDelete(k, v)
	}
	mCandSets.With("churn").Inc()
	return nil, false
}

// build stamps the entry, then reads the index. The stamp-before-read
// discipline means a write racing the read makes the entry stale rather
// than letting it vouch for postings it never saw.
func (ent *candEntry) build(eng *engine.Engine, rel, keyword string) {
	vv := eng.Versions()
	toks := invidx.Tokenize(keyword)
	ent.tableKey = vervec.TableKey(rel)
	names := make([]string, 0, 1+len(toks))
	names = append(names, ent.tableKey)
	ent.termKeys = make([]string, len(toks))
	for i, t := range toks {
		ent.termKeys[i] = vervec.TermKey(t)
		names = append(names, ent.termKeys[i])
	}
	st := vv.Stamp(names)
	ent.epoch = st.Epoch
	ent.tableVal = st.Vals[0]
	ent.termVals = st.Vals[1:]

	ix := eng.Index()
	var ids []storage.RowID
	if relMeta, ok := eng.Database().Schema().Relation(rel); ok {
		for _, col := range relMeta.TextColumns() {
			ids = invidx.UnionRowIDs(ids, ix.Rows(rel, col, keyword))
		}
	}
	vals := make([]uint32, len(ids))
	for i, id := range ids {
		vals[i] = uint32(id)
	}
	ent.bm = bitset.FromSorted(vals)
}

// stale mirrors the engine candidate cache's conjunction rule: epoch moves
// always stale; a table bump stales only when every token term also moved
// (an insert lacking some token cannot join this candidate set). A
// tokenless keyword cannot be attributed, so any table movement stales it.
func (ent *candEntry) stale(vv *vervec.Vector) bool {
	if vv.EpochChanged(ent.epoch) {
		return true
	}
	if !vv.Advanced(ent.tableKey, ent.tableVal) {
		return false
	}
	if len(ent.termKeys) == 0 {
		return true
	}
	for i, tk := range ent.termKeys {
		if !vv.Advanced(tk, ent.termVals[i]) {
			return false
		}
	}
	return true
}

// evalScratch pools the per-evaluation working state.
type evalScratch struct {
	cands   []*bitset.Bitmap
	reduced []*bitset.Bitmap
	owned   []*bitset.Bitmap
	ids     []uint32
}

var scratchPool = sync.Pool{New: func() any { return &evalScratch{} }}

func (s *evalScratch) reset(n int) {
	if cap(s.cands) < n {
		s.cands = make([]*bitset.Bitmap, n)
		s.reduced = make([]*bitset.Bitmap, n)
	}
	s.cands = s.cands[:n]
	s.reduced = s.reduced[:n]
	for i := 0; i < n; i++ {
		s.cands[i], s.reduced[i] = nil, nil
	}
	s.owned = s.owned[:0]
	s.ids = s.ids[:0]
}

func (s *evalScratch) release() {
	for _, b := range s.owned {
		b.Release()
	}
	s.owned = s.owned[:0]
	scratchPool.Put(s)
}

// evaluate runs the semi-join full reduction and answers the root existence
// question. Correctness: by induction over the bottom-up order, reduced[v]
// is exactly the set of rows of v extendable to a complete match of v's
// subtree (candidate membership for v itself, a surviving partner in every
// bounded child, an existing chain in every free child). The node is alive
// iff some root candidate row has that property — which the final loop
// checks with an early exit on the first survivor.
//
//kws:hotpath
func (e *Evaluator) evaluate(p *plan) (alive, ok bool, cause string) {
	sc := scratchPool.Get().(*evalScratch)
	sc.reset(len(p.verts))
	defer sc.release()

	for i := range p.verts {
		kw := p.verts[i].keyword
		if kw == "" {
			continue
		}
		bm, fresh := e.candidate(p.verts[i].rel, kw)
		if !fresh {
			return false, false, "candset_churn"
		}
		if bm.IsEmpty() {
			// A bound vertex with no matching rows kills the whole tree.
			return false, true, ""
		}
		sc.cands[i] = bm
	}

	for _, vi := range p.order {
		v := &p.verts[vi]
		cur := sc.cands[vi] // nil = universe (free vertex with bounded subtree)
		for _, c := range v.bounded {
			next := e.semijoin(sc, v, cur, &p.verts[c], sc.reduced[c])
			cur = next
			sc.owned = append(sc.owned, next)
			if cur.IsEmpty() {
				return false, true, ""
			}
		}
		for _, c := range v.free {
			// cur is non-nil here: a bounded vertex starts from its
			// candidate set, and a free-but-bounded vertex has at least one
			// bounded child reduced first.
			next := e.filterFree(sc, cur, v, p, c)
			cur = next
			sc.owned = append(sc.owned, next)
			if cur.IsEmpty() {
				return false, true, ""
			}
		}
		sc.reduced[vi] = cur
	}

	rv := &p.verts[p.root]
	found := false
	sc.cands[p.root].Iterate(func(id uint32) bool {
		row := rv.tbl.Row(storage.RowID(id))
		for _, c := range rv.bounded {
			cv := &p.verts[c]
			if !anyIn(cv.tbl.LookupInt(cv.selfCol, row[cv.parCol].I), sc.reduced[c]) {
				return true // next root candidate
			}
		}
		for _, c := range rv.free {
			if !freeMatch(p, c, rv.tbl, id) {
				return true
			}
		}
		found = true
		return false
	})
	return found, true, ""
}

// semijoin reduces the parent's row set to the rows with at least one join
// partner in the child's reduced set. cur == nil means the parent is still
// unbounded (universe); the result is then built from the child side.
func (e *Evaluator) semijoin(sc *evalScratch, v *pvert, cur *bitset.Bitmap, cv *pvert, red *bitset.Bitmap) *bitset.Bitmap {
	if cur == nil || red.Cardinality() < cur.Cardinality() {
		// Build candidate parents from the child side: the union of parent
		// rows matching each surviving child row's join value.
		sc.ids = sc.ids[:0]
		red.Iterate(func(cid uint32) bool {
			val := cv.tbl.Row(storage.RowID(cid))[cv.selfCol].I
			for _, pid := range v.tbl.LookupInt(cv.parCol, val) {
				sc.ids = append(sc.ids, uint32(pid))
			}
			return true
		})
		built := fromUnsorted(sc.ids)
		if cur == nil {
			return built
		}
		out := built.And(cur)
		built.Release()
		return out
	}
	// Probe the child from the parent side.
	out := bitset.New()
	cur.Iterate(func(pid uint32) bool {
		val := v.tbl.Row(storage.RowID(pid))[cv.parCol].I
		if anyIn(cv.tbl.LookupInt(cv.selfCol, val), red) {
			out.Add(pid)
		}
		return true
	})
	return out
}

// filterFree keeps the parent rows whose free child subtree ci has at least
// one complete chain.
func (e *Evaluator) filterFree(sc *evalScratch, cur *bitset.Bitmap, v *pvert, p *plan, ci int) *bitset.Bitmap {
	out := bitset.New()
	cur.Iterate(func(pid uint32) bool {
		if freeMatch(p, ci, v.tbl, pid) {
			out.Add(pid)
		}
		return true
	})
	return out
}

// freeMatch reports whether the free vertex ci has a row joining the given
// parent row that itself completes ci's (entirely free) subtree. Depth is
// bounded by the lattice level; every descendant of an unbounded vertex is
// unbounded, so only the free lists recurse.
func freeMatch(p *plan, ci int, parentTbl *storage.Table, parentID uint32) bool {
	cv := &p.verts[ci]
	val := parentTbl.Row(storage.RowID(parentID))[cv.parCol].I
	for _, cid := range cv.tbl.LookupInt(cv.selfCol, val) {
		matched := true
		for _, g := range cv.free {
			if !freeMatch(p, g, cv.tbl, uint32(cid)) {
				matched = false
				break
			}
		}
		if matched {
			return true
		}
	}
	return false
}

// anyIn reports whether any looked-up row ID is in the reduced set.
func anyIn(ids []storage.RowID, b *bitset.Bitmap) bool {
	for _, id := range ids {
		if b.Contains(uint32(id)) {
			return true
		}
	}
	return false
}

// fromUnsorted sorts and dedupes ids in place, then builds a bitmap.
func fromUnsorted(ids []uint32) *bitset.Bitmap {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w := 0
	for i, v := range ids {
		if i == 0 || v != ids[w-1] {
			ids[w] = v
			w++
		}
	}
	return bitset.FromSorted(ids[:w])
}
