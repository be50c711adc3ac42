package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"kwsdbg/internal/dblife"
)

// This file keeps the Phase 3 bookkeeping the traversal used before it read
// MPANs, partial flags and SBH's weights off the node statuses: Algorithm
// 3's per-MTN candidate-MPAN sets (mp), SBH's per-MTN search spaces (S) and
// their membership counters (W), a recursive classify that maintains them,
// one result function for completed runs and one for exhausted runs, and
// the serial traversals that drive them. TestTraversalMatchesReference and
// FuzzTraversalMatchesReference run it beside sys.traverse.

// refRun is the reference's classification state of one traversal.
type refRun struct {
	sub    *sublattice
	oracle Oracle
	gov    *governor
	active bitset
	// owners[x] lists, ascending, the MTN positions whose Desc+ holds x.
	owners [][]int32

	status   []status
	inferred int

	// mp[mi] is the candidate MPAN set of MTN position mi (nil when
	// inactive). S and W are allocated by the score-based heuristic only:
	// S[mi] is the unresolved search space of MTN position mi and W[x]
	// counts how many active search spaces still contain x.
	mp []bitset
	S  []bitset
	W  []int32
}

func newRefRun(sub *sublattice, oracle Oracle, gov *governor, positions []int) *refRun {
	r := &refRun{
		sub:    sub,
		oracle: oracle,
		gov:    gov,
		active: newBitset(len(sub.mtns)),
		owners: make([][]int32, sub.len()),
		status: make([]status, sub.len()),
		mp:     make([]bitset, len(sub.mtns)),
	}
	for mi, m := range sub.mtns {
		r.owners[m] = append(r.owners[m], int32(mi))
		for _, d := range sub.desc.row(m) {
			r.owners[d] = append(r.owners[d], int32(mi))
		}
	}
	for _, mi := range positions {
		r.active.set(mi)
		r.mp[mi] = newBitset(sub.len())
		for _, d := range sub.desc.row(sub.mtns[mi]) {
			r.mp[mi].set(int(d))
		}
	}
	return r
}

func (r *refRun) enableSearchSpaces() {
	r.S = make([]bitset, len(r.sub.mtns))
	r.W = make([]int32, r.sub.len())
	r.active.forEach(func(mi int) {
		m := r.sub.mtns[mi]
		s := newBitset(r.sub.len())
		s.set(m)
		r.W[m]++
		for _, d := range r.sub.desc.row(m) {
			s.set(int(d))
			r.W[d]++
		}
		r.S[mi] = s
	})
}

func (r *refRun) removeFromS(mi, x int) {
	if r.S == nil || r.S[mi] == nil {
		return
	}
	if r.S[mi].has(x) {
		r.S[mi].clear(x)
		r.W[x]--
	}
}

// classify applies R1 downward and R2 upward by recursion, maintaining the
// candidate-MPAN sets and search spaces of every active owner of x.
func (r *refRun) classify(x int, isAlive, inferred bool) {
	if r.status[x] != stUnknown {
		return
	}
	if inferred {
		r.inferred++
	}
	if isAlive {
		r.status[x] = stAlive
		for _, mi := range r.owners[x] {
			if !r.active.has(int(mi)) {
				continue
			}
			for _, d := range r.sub.desc.row(x) {
				r.mp[mi].clear(int(d))
				r.removeFromS(int(mi), int(d))
			}
			r.removeFromS(int(mi), x)
		}
		for _, d := range r.sub.desc.row(x) {
			r.classify(int(d), true, true)
		}
		return
	}
	r.status[x] = stDead
	for _, mi := range r.owners[x] {
		if !r.active.has(int(mi)) {
			continue
		}
		r.mp[mi].clear(x)
		r.removeFromS(int(mi), x)
	}
	for _, a := range r.sub.asc.row(x) {
		r.classify(int(a), false, true)
	}
}

func (r *refRun) evaluate(x int) error {
	if r.status[x] != stUnknown {
		return nil
	}
	if err := r.gov.admit(); err != nil {
		return err
	}
	alive, err := r.oracle.IsAlive(r.sub.nodeID[x])
	if err != nil {
		return err
	}
	r.classify(x, alive, false)
	return nil
}

func (r *refRun) init(sd seed) {
	ids := make([]int, 0, len(sd.pins))
	for id := range sd.pins {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if x, ok := r.sub.index(id); ok {
			r.classify(x, sd.pins[id], true)
		}
	}
	for x := 0; x < r.sub.len() && r.sub.level[x] == 1; x++ {
		r.classify(x, sd.baseAlive(r.sub.nodeID[x]), true)
	}
}

func (r *refRun) isActiveMTN(x int) bool {
	for _, mi := range r.owners[x] {
		if r.active.has(int(mi)) && r.sub.mtns[mi] == x {
			return true
		}
	}
	return false
}

func (r *refRun) bottomUp(sd seed) error {
	reg := newBitset(r.sub.len())
	r.active.forEach(func(mi int) {
		m := r.sub.mtns[mi]
		reg.set(m)
		for _, d := range r.sub.desc.row(m) {
			reg.set(int(d))
		}
	})
	buckets := make([][]int, r.sub.maxLevel+1)
	queued := newBitset(r.sub.len())
	r.init(sd)
	enqueueParents := func(x int) {
		if r.isActiveMTN(x) {
			return
		}
		for _, p := range r.sub.parents.row(x) {
			pi := int(p)
			if reg.has(pi) && !queued.has(pi) {
				queued.set(pi)
				buckets[r.sub.level[pi]] = append(buckets[r.sub.level[pi]], pi)
			}
		}
	}
	for x := 0; x < r.sub.len() && r.sub.level[x] == 1; x++ {
		if reg.has(x) && r.status[x] == stAlive {
			enqueueParents(x)
		}
	}
	for level := 2; level <= r.sub.maxLevel; level++ {
		sort.Ints(buckets[level])
		for _, x := range buckets[level] {
			if err := r.evaluate(x); err != nil {
				return err
			}
		}
		for _, x := range buckets[level] {
			if r.status[x] == stAlive {
				enqueueParents(x)
			}
		}
	}
	return nil
}

func (r *refRun) topDown(sd seed) error {
	buckets := make([][]int, r.sub.maxLevel+1)
	queued := newBitset(r.sub.len())
	enqueue := func(x int) {
		if !queued.has(x) {
			queued.set(x)
			buckets[r.sub.level[x]] = append(buckets[r.sub.level[x]], x)
		}
	}
	r.init(sd)
	r.active.forEach(func(mi int) { enqueue(r.sub.mtns[mi]) })
	for level := r.sub.maxLevel; level >= 2; level-- {
		sort.Ints(buckets[level])
		for _, x := range buckets[level] {
			if err := r.evaluate(x); err != nil {
				return err
			}
		}
		for _, x := range buckets[level] {
			if r.status[x] == stDead {
				for _, c := range r.sub.children.row(x) {
					enqueue(int(c))
				}
			}
		}
	}
	return nil
}

func (r *refRun) returnEverything(sd seed) error {
	r.init(sd)
	seeded := append([]status(nil), r.status...)
	for x := 0; x < r.sub.len(); x++ {
		if r.sub.level[x] < 2 || seeded[x] != stUnknown {
			continue
		}
		if err := r.gov.admit(); err != nil {
			return err
		}
		alive, err := r.oracle.IsAlive(r.sub.nodeID[x])
		if err != nil {
			return err
		}
		r.classify(x, alive, false)
	}
	return nil
}

func (r *refRun) scoreBased(sd seed, pa float64) error {
	r.enableSearchSpaces()
	r.init(sd)
	gain := func(x int) float64 {
		sumD := float64(r.W[x])
		for _, d := range r.sub.desc.row(x) {
			sumD += float64(r.W[d])
		}
		sumA := float64(r.W[x])
		for _, a := range r.sub.asc.row(x) {
			sumA += float64(r.W[a])
		}
		return pa*sumD + (1-pa)*sumA
	}
	h := make(gainHeap, 0, r.sub.len())
	for x := 0; x < r.sub.len(); x++ {
		if r.status[x] == stUnknown && r.W[x] > 0 {
			h.push(gainItem{x: x, gain: gain(x)})
		}
	}
	const eps = 1e-9
	for len(h) > 0 {
		top := h.pop()
		if r.status[top.x] != stUnknown || r.W[top.x] == 0 {
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

// result reads a completed run's candidate-MPAN sets.
func (r *refRun) result() (traverseResult, error) {
	res := traverseResult{mpans: make(map[int][]int)}
	var err error
	r.active.forEach(func(mi int) {
		m := r.sub.mtns[mi]
		switch r.status[m] {
		case stAlive:
			res.aliveMTNs = append(res.aliveMTNs, m)
		case stDead:
			res.deadMTNs = append(res.deadMTNs, m)
			var ps []int
			r.mp[mi].forEach(func(p int) { ps = append(ps, p) })
			res.mpans[m] = ps
		default:
			err = fmt.Errorf("core: MTN %s left unclassified", r.sub.node(m))
		}
	})
	sort.Ints(res.aliveMTNs)
	sort.Ints(res.deadMTNs)
	return res, err
}

func (r *refRun) inRegionOf(mi, x int) bool {
	for _, o := range r.owners[x] {
		if int(o) == mi {
			return true
		}
	}
	return false
}

// partialResult reports, for a dead MTN, a candidate MPAN only when it is
// alive and every strict ancestor inside the MTN's region is classified.
func (r *refRun) partialResult() traverseResult {
	res := traverseResult{mpans: make(map[int][]int), partial: make(map[int]bool)}
	r.active.forEach(func(mi int) {
		m := r.sub.mtns[mi]
		switch r.status[m] {
		case stAlive:
			res.aliveMTNs = append(res.aliveMTNs, m)
		case stDead:
			res.deadMTNs = append(res.deadMTNs, m)
			var ps []int
			incomplete := false
			r.mp[mi].forEach(func(p int) {
				if r.status[p] != stAlive {
					incomplete = true
					return
				}
				for _, a := range r.sub.asc.row(p) {
					if r.status[a] == stUnknown && r.inRegionOf(mi, int(a)) {
						incomplete = true
						return
					}
				}
				ps = append(ps, p)
			})
			res.mpans[m] = ps
			if incomplete {
				res.partial[m] = true
			}
		default:
			res.unresolved = append(res.unresolved, m)
		}
	})
	sort.Ints(res.aliveMTNs)
	sort.Ints(res.deadMTNs)
	sort.Ints(res.unresolved)
	return res
}

// refTraverse is the serial Phase 3 dispatch over the reference runs.
func refTraverse(sub *sublattice, oracle Oracle, sd seed, strategy Strategy, pa float64, gov *governor) (traverseResult, int, error) {
	run := func(r *refRun) error {
		switch strategy {
		case BU, BUWR:
			return r.bottomUp(sd)
		case TD, TDWR:
			return r.topDown(sd)
		case RE:
			return r.returnEverything(sd)
		default:
			return r.scoreBased(sd, pa)
		}
	}
	switch strategy {
	case BU, TD:
		acc := traverseResult{mpans: make(map[int][]int)}
		inferred := 0
		for mi := range sub.mtns {
			r := newRefRun(sub, oracle, gov, []int{mi})
			if err := run(r); err != nil {
				if !errors.Is(err, errExhausted) {
					return traverseResult{}, 0, err
				}
				part := r.partialResult()
				part.unresolved = append(part.unresolved, sub.mtns[mi+1:]...)
				acc.merge(part)
				inferred += r.inferred
				break
			}
			one, err := r.result()
			if err != nil {
				return traverseResult{}, 0, err
			}
			acc.merge(one)
			inferred += r.inferred
		}
		sort.Ints(acc.aliveMTNs)
		sort.Ints(acc.deadMTNs)
		return acc, inferred, nil
	case BUWR, TDWR, SBH, RE:
		all := make([]int, len(sub.mtns))
		for i := range all {
			all[i] = i
		}
		r := newRefRun(sub, oracle, gov, all)
		if err := run(r); err != nil {
			if !errors.Is(err, errExhausted) {
				return traverseResult{}, 0, err
			}
			return r.partialResult(), r.inferred, nil
		}
		res, err := r.result()
		return res, r.inferred, err
	}
	return traverseResult{}, 0, fmt.Errorf("core: unknown strategy %v", strategy)
}

// truthOracle answers probes from a verdict per sub node and records the
// order of its probes. It is safe for concurrent use.
type truthOracle struct {
	sub   *sublattice
	alive []bool

	mu sync.Mutex
	// order lists the probed sub indexes in probe order. guarded by mu.
	order []int
}

func (o *truthOracle) IsAlive(nodeID int) (bool, error) {
	x, ok := o.sub.index(nodeID)
	if !ok {
		return false, fmt.Errorf("probe of node %d outside the sublattice", nodeID)
	}
	o.mu.Lock()
	o.order = append(o.order, x)
	o.mu.Unlock()
	return o.alive[x], nil
}

// refCase is one keyword query's sublattice with the database's verdict on
// every node above the base level.
type refCase struct {
	name  string
	sys   *System
	sub   *sublattice
	truth []bool
}

// newRefCase runs Phases 1-2 for kws and probes every sub node of level 2
// and up; it returns nil when the query has a missing keyword or no MTNs.
func newRefCase(t *testing.T, name string, sys *System, kws []string) *refCase {
	t.Helper()
	ph, err := sys.phase12(kws, false)
	if err != nil {
		t.Fatalf("%s: phase12: %v", name, err)
	}
	if len(ph.nonKeywords) > 0 || len(ph.mtnIDs) == 0 {
		return nil
	}
	sub := buildSublattice(sys.lat, ph.mtnIDs)
	o := sys.newOracle(context.Background(), sub, kws, nil)
	truth := make([]bool, sub.len())
	for x := range truth {
		if sub.level[x] < 2 {
			continue
		}
		if truth[x], err = o.IsAlive(sub.nodeID[x]); err != nil {
			t.Fatalf("%s: probe %s: %v", name, sub.node(x), err)
		}
	}
	return &refCase{name: name, sys: sys, sub: sub, truth: truth}
}

// randomPins pins 1-3 random sub nodes to random verdicts.
func (c *refCase) randomPins(r *rand.Rand) map[int]bool {
	pins := make(map[int]bool)
	for n := 1 + r.Intn(3); n > 0; n-- {
		pins[c.sub.nodeID[r.Intn(c.sub.len())]] = r.Intn(2) == 0
	}
	return pins
}

// check runs one strategy through sys.traverse and through the reference
// (compare). An SBH case runs twice on the case's sublattice, fresh or
// replaying its memo and then replaying it, and then once more for each of
// three probes of its path, with that probe's verdict flipped (flipped), so
// that the replay diverges there.
func (c *refCase) check(t *testing.T, pins map[int]bool, strat Strategy, budget, workers int) {
	t.Helper()
	sd := seed{baseAlive: c.sys.baseAliveFunc(), pins: pins}
	label := fmt.Sprintf("%s %v budget=%d workers=%d pins=%v", c.name, strat, budget, workers, pins)
	order := c.compare(t, label, c.truth, sd, strat, budget, workers)
	if strat != SBH {
		return
	}
	order = c.compare(t, label+" again", c.truth, sd, strat, budget, workers)
	if len(order) == 0 {
		return
	}
	for _, k := range slices.Compact([]int{0, len(order) / 2, len(order) - 1}) {
		c.compare(t, fmt.Sprintf("%s flipped at probe %d", label, k+1), c.flipped(order[k]), sd, strat, budget, workers)
	}
}

// compare runs one strategy through sys.traverse and through the
// reference, each with its own oracle and governor, on the verdicts truth,
// and compares what they report: the alive, dead and unresolved MTNs, the
// MPANs, the partial set, the inferred count, the probe count and, for
// serial runs and SBH, the probe order. It returns the probe order.
func (c *refCase) compare(t *testing.T, label string, truth []bool, sd seed, strat Strategy, budget, workers int) []int {
	t.Helper()
	ctx := context.Background()
	gotOracle := &truthOracle{sub: c.sub, alive: truth}
	got, gotInferred, err := c.sys.traverse(ctx, c.sub, gotOracle, sd, Options{Strategy: strat, Pa: 0.5}, workers, newGovernor(ctx, ctx, budget))
	if err != nil {
		t.Fatalf("%s: traverse: %v", label, err)
	}
	wantOracle := &truthOracle{sub: c.sub, alive: truth}
	want, wantInferred, err := refTraverse(c.sub, wantOracle, sd, strat, 0.5, newGovernor(ctx, ctx, budget))
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if g, w := got.normalized(), want.normalized(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: result differs from the reference\ngot:  %+v\nwant: %+v", label, g, w)
	}
	if gotInferred != wantInferred {
		t.Fatalf("%s: inferred %d, reference %d", label, gotInferred, wantInferred)
	}
	if g, w := len(gotOracle.order), len(wantOracle.order); g != w {
		t.Fatalf("%s: %d probes, reference %d", label, g, w)
	}
	if (workers == 1 || strat == SBH) && !slices.Equal(gotOracle.order, wantOracle.order) {
		t.Fatalf("%s: probe order differs from the reference\ngot:  %v\nwant: %v", label, gotOracle.order, wantOracle.order)
	}
	return gotOracle.order
}

// flipped returns the case's verdicts with x's flipped. The verdicts that
// hang on x's follow it, so the rules still hold between them: x's
// ancestors die with it, and its descendants come alive with it. A run that
// probed x after other nodes probed them with the verdicts they keep, since
// rules R1 and R2 would otherwise have settled x before its probe.
func (c *refCase) flipped(x int) []bool {
	truth := slices.Clone(c.truth)
	truth[x] = !truth[x]
	implied := c.sub.desc.row(x)
	if !truth[x] {
		implied = c.sub.asc.row(x)
	}
	for _, y := range implied {
		truth[y] = truth[x]
	}
	return truth
}

// normalized treats empty and nil lists and maps as equal.
func (res traverseResult) normalized() traverseResult {
	nilIfEmpty := func(xs []int) []int {
		if len(xs) == 0 {
			return nil
		}
		return xs
	}
	out := traverseResult{
		aliveMTNs:  nilIfEmpty(res.aliveMTNs),
		deadMTNs:   nilIfEmpty(res.deadMTNs),
		unresolved: nilIfEmpty(res.unresolved),
	}
	if len(res.mpans) > 0 {
		out.mpans = make(map[int][]int, len(res.mpans))
		for m, ps := range res.mpans {
			out.mpans[m] = nilIfEmpty(ps)
		}
	}
	if len(res.partial) > 0 {
		out.partial = res.partial
	}
	return out
}

// checkAll runs every strategy at workers 1 and 4 under each budget.
func (c *refCase) checkAll(t *testing.T, pins map[int]bool) {
	t.Helper()
	for _, strat := range allStrategies {
		for _, budget := range []int{0, 1, 3, 7, 40} {
			for _, workers := range []int{1, 4} {
				c.check(t, pins, strat, budget, workers)
			}
		}
	}
}

// figure2Queries are keyword queries over Figure 2's product database.
var figure2Queries = [][]string{
	{"saffron", "scented", "candle"}, {"red", "candle"}, {"scented", "candle"},
	{"saffron", "candle"}, {"saffron", "scented"}, {"vanilla", "oil"},
	{"pink", "incense"}, {"checkered", "scent"}, {"crimson"},
	{"orange", "burns"}, {"floral", "pattern", "oil"}, {"2pck", "candle"},
	{"yellow", "scented", "oil"},
}

// TestTraversalMatchesReference compares every strategy's Phase 3 outcome
// with the reference bookkeeping on the Figure 2 product queries, DBLife
// Q1-Q10 at levels 3 and 5, and random schemas with and without pins.
func TestTraversalMatchesReference(t *testing.T) {
	t.Run("figure2", func(t *testing.T) {
		sys := productSystem(t)
		for _, kws := range figure2Queries {
			if c := newRefCase(t, fmt.Sprint(kws), sys, kws); c != nil {
				c.checkAll(t, nil)
			}
		}
	})
	for _, level := range []int{3, 5} {
		t.Run(fmt.Sprintf("dblife-level%d", level), func(t *testing.T) {
			sys := dblifeSystem(t, level)
			for _, q := range dblife.Workload() {
				if c := newRefCase(t, q.ID, sys, q.Keywords); c != nil {
					c.checkAll(t, nil)
				}
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(25))
		for trial := 0; trial < 30; trial++ {
			sys, vocab := randomSystem(t, r)
			for q := 0; q < 3; q++ {
				kws := make([]string, 1+r.Intn(3))
				for i := range kws {
					kws[i] = vocab[r.Intn(len(vocab))]
				}
				c := newRefCase(t, fmt.Sprintf("trial %d %v", trial, kws), sys, kws)
				if c == nil {
					continue
				}
				c.checkAll(t, nil)
				c.checkAll(t, c.randomPins(r))
			}
		}
	})
}

// FuzzTraversalMatchesReference compares one serial traversal with the
// reference on a random schema built from seed: strategy picks one of the
// six, budget caps the probes (0 is unlimited), and a non-zero pinSeed pins
// 1-3 random sub nodes. The case runs twice, so the second SBH check
// replays what the first recorded.
func FuzzTraversalMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0), int64(0))
	f.Add(int64(2), uint8(0), uint8(3), int64(0))
	f.Add(int64(3), uint8(3), uint8(1), int64(7))
	f.Add(int64(4), uint8(5), uint8(7), int64(11))
	f.Add(int64(5), uint8(1), uint8(40), int64(0))
	f.Add(int64(6), uint8(2), uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, sysSeed int64, strategy, budget uint8, pinSeed int64) {
		r := rand.New(rand.NewSource(sysSeed))
		sys, vocab := randomSystem(t, r)
		kws := make([]string, 1+r.Intn(3))
		for i := range kws {
			kws[i] = vocab[r.Intn(len(vocab))]
		}
		c := newRefCase(t, fmt.Sprintf("seed %d %v", sysSeed, kws), sys, kws)
		if c == nil {
			return
		}
		var pins map[int]bool
		if pinSeed != 0 {
			pins = c.randomPins(rand.New(rand.NewSource(pinSeed)))
		}
		for i := 0; i < 2; i++ {
			c.check(t, pins, allStrategies[int(strategy)%len(allStrategies)], int(budget), 1)
		}
	})
}
