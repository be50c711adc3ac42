package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// scoreBased is the greedy traversal of §2.5.3. Each unclassified node x is
// scored by the expected shrinkage of the per-MTN search spaces if x were
// probed:
//
//	gain(x) = pa * sum_{y in Desc+(x)} W(y) + (1-pa) * sum_{y in Asc+(x)} W(y)
//
// where W(y) counts the search spaces still containing y. Every MTN is
// active under SBH, and an MTN's search space is its region Desc+(m) less
// the nodes already classified, so W(y) is sub.regions[y] while y is
// unknown and 0 once it is classified. Minimizing the paper's
// expected-remaining-space score is equivalent to maximizing this gain (the
// paper's Equation 1 rearranged over the current search spaces). Because W
// only decreases as the run progresses, gains are monotonically
// non-increasing, which makes the classic lazy-greedy evaluation exact: pop
// the stale maximum, recompute its gain, and re-insert unless it still beats
// the runner-up.
//
// The next probe is a function of the statuses after the seed, pa and the
// verdicts seen so far, so each completed run records its decision path in
// its sublattice's memo (sbhMemo), and a later run from the same start walks
// the recorded paths instead of the heap (replay).
func (r *run) scoreBased(sd seed, pa float64) error {
	r.init(sd)
	paths, start := r.sub.sbh.find(r.status, pa)
	var known []int32
	if start != nil {
		var err error
		if known, err = r.replay(paths, start); err != nil || r.res != nil {
			return err
		}
		// No recorded path holds the last verdict. A heap built now would
		// not break ties as the run's own heap would have, so start again
		// from the seed and let the loop answer the probes made so far from
		// known.
		clear(r.status)
		r.inferred = 0
		r.init(sd)
	} else {
		start = &sbhStart{pa: pa, status: slices.Clone(r.status)}
	}

	w := func(y int) float64 {
		if r.status[y] != stUnknown {
			return 0
		}
		return float64(r.sub.regions[y])
	}
	gain := func(x int) float64 {
		sumD := w(x)
		for _, d := range r.sub.desc.row(x) {
			sumD += w(int(d))
		}
		sumA := w(x)
		for _, a := range r.sub.asc.row(x) {
			sumA += w(int(a))
		}
		return pa*sumD + (1-pa)*sumA
	}

	h := make(gainHeap, 0, r.sub.len())
	for x := 0; x < r.sub.len(); x++ {
		if r.status[x] == stUnknown {
			h.push(gainItem{x: x, gain: gain(x)})
		}
	}
	// A run probes each node at most once, so the path fits in one array
	// as long as the heap.
	path := make([]int32, 0, len(h))
	const eps = 1e-9
	for len(h) > 0 {
		top := h.pop()
		if r.status[top.x] != stUnknown {
			continue
		}
		g := gain(top.x)
		if len(h) > 0 && g+eps < h[0].gain {
			h.push(gainItem{x: top.x, gain: g})
			continue
		}
		var alive bool
		if k := len(path); k < len(known) {
			if x := int(known[k] >> 1); x != top.x {
				return fmt.Errorf("core: SBH chose %s as probe %d, where the replayed run probed %s", r.sub.node(top.x), k+1, r.sub.node(x))
			}
			alive = known[k]&1 == 1
		} else {
			var err error
			if alive, err = r.probe(top.x); err != nil {
				return err
			}
		}
		r.classify(top.x, alive, false)
		path = append(path, sbhStep(top.x, alive))
	}
	if len(path) < len(known) {
		return fmt.Errorf("core: SBH stopped after %d probes, where the replayed run probed %d", len(path), len(known))
	}
	res := r.result()
	r.res = &res
	r.sub.sbh.record(r.sub, start, path, res)
	return nil
}

// replay walks the recorded paths from start. It probes each recorded node
// through r.probe, as the heap loop would, classifies it, and follows the
// path that agrees with every verdict so far; paths that agree up to a
// probe chose the same next node, since the choice is a function of what
// they agree on. At a path's end it sets r.res to the path's result. At a
// verdict no path agrees with it returns the steps probed, the last one
// included. An exhausted or failed probe returns its error with the
// statuses the heap loop would hold after the same probes.
func (r *run) replay(paths []sbhPath, start *sbhStart) ([]int32, error) {
	cur := 0
	for paths[cur].start != start {
		cur++
	}
	steps := paths[cur].steps
	for i := 0; i < len(steps); i++ {
		x := int(steps[i] >> 1)
		if r.status[x] != stUnknown {
			return nil, fmt.Errorf("core: SBH replay reached %s, already classified, at probe %d", r.sub.node(x), i+1)
		}
		alive, err := r.probe(x)
		if err != nil {
			return nil, err
		}
		r.classify(x, alive, false)
		step := sbhStep(x, alive)
		if step == steps[i] {
			continue
		}
		cur = -1
		for j := range paths {
			if q := paths[j].steps; paths[j].start == start && len(q) > i && q[i] == step && slices.Equal(q[:i], steps[:i]) {
				cur = j
				break
			}
		}
		if cur < 0 {
			return append(steps[:i:i], step), nil
		}
		steps = paths[cur].steps
	}
	r.res = &paths[cur].res
	return nil, nil
}

// sbhStep packs one probe of a decision path: the sub index and the verdict.
func sbhStep(x int, alive bool) int32 {
	s := int32(x) << 1
	if alive {
		s |= 1
	}
	return s
}

// sbhMemo holds the decision paths of the completed SBH runs on one
// sublattice, each with the start it was recorded from. Readers load the
// published slice, which is never changed; record publishes a copy with one
// more path. The paths take at most as many bytes as the sublattice itself,
// as far as traverseResult.bytes estimates their results.
type sbhMemo struct {
	paths atomic.Pointer[[]sbhPath]

	// mu serializes record.
	mu sync.Mutex
	// bytes is the size of the published paths and their starts. guarded
	// by mu.
	bytes int
}

// sbhStart is where SBH runs start: pa and the statuses after the seed.
// Paths recorded from equal starts share one.
type sbhStart struct {
	pa     float64
	status []status
}

func (s *sbhStart) equal(status []status, pa float64) bool {
	return s.pa == pa && slices.Equal(s.status, status)
}

// sbhPath is one completed run: its probes in order, each x<<1 | alive, and
// its result.
type sbhPath struct {
	start *sbhStart
	steps []int32
	res   traverseResult
}

// Sizes charged against the memo's bound besides the arrays: a path's slot
// in the published slice, and a start's struct.
const (
	sbhPathBytes  = 8 + 24 + 88
	sbhStartBytes = 8 + 24
)

// find returns the published paths and the recorded start equal to the
// run's, or nil when none is.
func (m *sbhMemo) find(status []status, pa float64) ([]sbhPath, *sbhStart) {
	p := m.paths.Load()
	if p == nil {
		return nil, nil
	}
	for _, path := range *p {
		if path.start.equal(status, pa) {
			return *p, path.start
		}
	}
	return nil, nil
}

// record adds a completed run's path from start, unless the memo holds it
// already or it would take the memo past the size of sub.
func (m *sbhMemo) record(sub *sublattice, start *sbhStart, steps []int32, res traverseResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var paths []sbhPath
	if p := m.paths.Load(); p != nil {
		paths = *p
	}
	size := sbhPathBytes + 4*len(steps) + res.bytes()
	shared := false
	for _, path := range paths {
		if path.start.equal(start.status, start.pa) {
			if slices.Equal(path.steps, steps) {
				return
			}
			start, shared = path.start, true
		}
	}
	if !shared {
		size += sbhStartBytes + len(start.status)
	}
	if m.bytes+size > sub.bytes() {
		return
	}
	next := make([]sbhPath, len(paths)+1)
	copy(next, paths)
	next[len(paths)] = sbhPath{start: start, steps: slices.Clone(steps), res: res}
	m.paths.Store(&next)
	m.bytes += size
}

// gainItem is one heap entry; stale gains are revalidated on pop.
type gainItem struct {
	x    int
	gain float64
}

// gainHeap is a max-heap on gain with ascending node index as tie-breaker,
// which keeps runs deterministic. It holds at most one entry per node, so
// the order is total and any heap pops the same sequence; this one is typed
// so that entries are not boxed through an interface on every push and pop.
type gainHeap []gainItem

// before reports whether entry i pops ahead of entry j.
func (h gainHeap) before(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].x < h[j].x
}

func (h *gainHeap) push(it gainItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; j > 0; {
		parent := (j - 1) / 2
		if !q.before(j, parent) {
			break
		}
		q[j], q[parent] = q[parent], q[j]
		j = parent
	}
}

func (h *gainHeap) pop() gainItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		best, l := i, 2*i+1
		if l < n && q.before(l, best) {
			best = l
		}
		if r := l + 1; r < n && q.before(r, best) {
			best = r
		}
		if best == i {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	*h = q
	return top
}
