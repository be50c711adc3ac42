package core

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
func (r *run) scoreBased(sd seed, pa float64) error {
	r.init(sd)

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
		if err := r.evaluate(top.x); err != nil {
			return err
		}
	}
	return nil
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
