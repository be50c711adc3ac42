package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// status is the classification state of a sub-lattice node.
type status uint8

const (
	stUnknown status = iota
	stAlive
	stDead
)

// traverseResult is what every Phase 3 strategy must produce — and, by the
// paper's correctness argument, produce identically: only the number of SQL
// probes differs between strategies.
type traverseResult struct {
	aliveMTNs []int         // sub indexes, sorted
	deadMTNs  []int         // sub indexes, sorted
	mpans     map[int][]int // dead MTN sub index -> sorted MPAN sub indexes

	// Exhaustion bookkeeping, empty for complete runs: unresolved lists the
	// MTN sub indexes the run never classified, and partial marks dead MTNs
	// whose MPAN list is guaranteed-but-possibly-incomplete.
	unresolved []int
	partial    map[int]bool
}

// run carries the classification state of one traversal: the node
// statuses. The MPANs, the partial flags and SBH's weights are read off them
// (result, scoreBased), so classify is the one place a status is set.
type run struct {
	sub    *sublattice
	oracle Oracle
	// active marks which MTN positions (into sub.mtns) this run maintains;
	// the no-reuse strategies run one position at a time.
	active bitset

	// ctx and workers drive the probe scheduler (scheduler.go): workers > 1
	// lets resolveLevel probe a level's unknown nodes concurrently, and ctx
	// cancellation abandons in-flight batches between probes.
	ctx     context.Context
	workers int

	// gov meters every oracle probe (see probe); runs sharing a Debug call
	// share one governor, so budget and deadline are per-request, not
	// per-MTN.
	gov *governor

	status   []status
	inferred int // classifications that did not execute SQL

	// res, when set, is the run's result, which finish returns instead of
	// reading it off the statuses: a completed SBH run sets it (sbh.go).
	res *traverseResult
}

func newRun(sub *sublattice, oracle Oracle, positions []int) *run {
	r := &run{
		sub:     sub,
		oracle:  oracle,
		active:  newBitset(len(sub.mtns)),
		status:  make([]status, sub.len()),
		ctx:     context.Background(),
		workers: 1,
		gov:     newGovernor(context.Background(), context.Background(), 0),
	}
	for _, mi := range positions {
		r.active.set(mi)
	}
	return r
}

// classify records a node's aliveness and applies the paper's two node
// classification rules: R1 (alive => all descendants alive) over
// desc.row(x), R2 (a node with a dead descendant is dead) over asc.row(x).
// Both rows are closures, so one pass settles every node the rule implies.
// Re-classification of an already-known node is a no-op; the nodes the pass
// settles are the "inferred" ones that save SQL probes.
//
//kws:hotpath
func (r *run) classify(x int, isAlive, inferred bool) {
	if r.status[x] != stUnknown {
		return
	}
	if inferred {
		r.inferred++
	}
	st, implied := stDead, r.sub.asc.row(x)
	if isAlive {
		st, implied = stAlive, r.sub.desc.row(x)
	}
	r.status[x] = st
	for _, y := range implied {
		if r.status[y] == stUnknown {
			r.status[y] = st
			r.inferred++
		}
	}
}

// probe resolves one node through the oracle under the run's governor:
// cancellation and exhaustion are checked (and the budget charged) before
// the oracle is consulted.
func (r *run) probe(x int) (bool, error) {
	if err := r.gov.admit(); err != nil {
		return false, err
	}
	return r.ask(x)
}

// ask consults the oracle for a node the governor has admitted; a failure
// caused by the run's own deadline is converted to the graceful exhaustion
// sentinel.
func (r *run) ask(x int) (bool, error) {
	alive, err := r.oracle.IsAlive(r.sub.nodeID[x])
	if err != nil {
		if gerr := r.gov.graceful(err); gerr != nil {
			return false, gerr
		}
		return false, err
	}
	return alive, nil
}

// evaluate resolves a node's status with an oracle probe (unless known).
func (r *run) evaluate(x int) error {
	if r.status[x] != stUnknown {
		return nil
	}
	alive, err := r.probe(x)
	if err != nil {
		return err
	}
	r.classify(x, alive, false)
	return nil
}

// seed carries the probe-free knowledge a traversal starts from: the
// base-level classification rule and any pinned hypothetical facts from an
// interactive session.
type seed struct {
	baseAlive func(nodeID int) bool
	// pins maps lattice node IDs to assumed aliveness; pins are applied
	// before anything else and propagate through rules R1/R2, so a
	// pinned-alive node implies its whole sub-query tree alive.
	pins map[int]bool
}

// init applies the seed: pins first (in ascending node order, so conflicts
// resolve deterministically), then the level-1 rule. Base nodes are
// classified without SQL: keyword-bound base nodes are alive by Phase 1's
// index check; free base nodes are alive iff their table is non-empty. This
// matches Algorithm 3, which skips execSQL for the nodes in B.
func (r *run) init(sd seed) {
	if len(sd.pins) > 0 {
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
	}
	for x := 0; x < r.sub.len() && r.sub.level[x] == 1; x++ {
		r.classify(x, sd.baseAlive(r.sub.nodeID[x]), true)
	}
}

// region returns the Desc+ closure of the active MTNs as a bitset.
func (r *run) region() bitset {
	reg := newBitset(r.sub.len())
	r.active.forEach(func(mi int) {
		m := r.sub.mtns[mi]
		reg.set(m)
		for _, d := range r.sub.desc.row(m) {
			reg.set(int(d))
		}
	})
	return reg
}

// isActiveMTN reports whether sub node x is one of the run's active MTNs.
func (r *run) isActiveMTN(x int) bool {
	mi, ok := slices.BinarySearch(r.sub.mtns, x)
	return ok && r.active.has(mi)
}

// bottomUp is Algorithm 3 (BUWR) restricted to the active MTNs; with a
// single active MTN and a fresh run it is plain BU. Levels are processed
// upward; the next level holds the in-region parents of alive non-MTN nodes.
func (r *run) bottomUp(sd seed) error {
	reg := r.region()
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
		// The bucket is complete before its level starts (alive nodes only
		// ever enqueue one level up), and the classification rules never act
		// within a level, so resolveLevel may probe its unknown nodes
		// concurrently and replay the verdicts in this sorted order.
		sort.Ints(buckets[level])
		if err := r.resolveLevel(buckets[level]); err != nil {
			return err
		}
		for _, x := range buckets[level] {
			if r.status[x] == stAlive {
				enqueueParents(x)
			}
		}
	}
	return nil
}

// topDown descends from the active MTNs: children of dead nodes are probed,
// sub-trees of alive nodes are inferred alive wholesale (rule R1).
func (r *run) topDown(sd seed) error {
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
		// Mirror image of bottomUp: dead nodes only enqueue one level down,
		// so this bucket is final and its unknowns mutually independent.
		sort.Ints(buckets[level])
		if err := r.resolveLevel(buckets[level]); err != nil {
			return err
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

// returnEverything is the RE baseline of §3.8: probe every unique node in
// the MTNs' descendant closure (level >= 2), with no lattice inference at
// all — the aliveness of every node is established by its own SQL query.
func (r *run) returnEverything(sd seed) error {
	r.init(sd)
	// Snapshot what the seed (pins + base rule) already settled: those nodes
	// have no database truth to fetch. Everything else is probed even when
	// rules R1/R2 could have inferred it — that is RE's defining waste.
	seeded := make([]status, len(r.status))
	copy(seeded, r.status)
	pending := make([]int, 0, r.sub.len())
	for x := 0; x < r.sub.len(); x++ {
		if r.sub.level[x] >= 2 && seeded[x] == stUnknown {
			pending = append(pending, x)
		}
	}
	// The probe set is fixed by the seed snapshot — RE never consults what it
	// has learned — so the whole traversal is one embarrassingly-parallel
	// batch when the run has workers.
	if r.workers > 1 && len(pending) > 1 {
		return r.batch(pending)
	}
	for _, x := range pending {
		alive, err := r.probe(x)
		if err != nil {
			return err
		}
		r.classify(x, alive, false)
	}
	return nil
}

// result reads the outcome for the active MTNs off the node statuses (§2).
// An alive MTN is an answer and an unknown one unresolved. A dead MTN is a
// non-answer whose MPANs are its alive strict descendants whose parents
// inside its region, Desc+(m), are all dead, in ascending sub index: an
// alive ancestor in the region would make a parent alive by R1, so these
// are exactly the maximal alive sub-queries. The MTN is partial when any
// strict descendant is unknown, since an unknown node could still turn out
// alive; a reported MPAN has only dead parents in the region, so no later
// verdict can demote it (DESIGN §8).
func (r *run) result() traverseResult {
	res := traverseResult{mpans: make(map[int][]int)}
	// region[y] holds the position+1 of the last dead MTN whose desc row
	// holds y, so deadParents tests membership in one load.
	var region []int32
	r.active.forEach(func(mi int) {
		m := r.sub.mtns[mi]
		switch r.status[m] {
		case stAlive:
			res.aliveMTNs = append(res.aliveMTNs, m)
		case stUnknown:
			res.unresolved = append(res.unresolved, m)
		default:
			res.deadMTNs = append(res.deadMTNs, m)
			if region == nil {
				region = make([]int32, r.sub.len())
			}
			stamp := int32(mi + 1)
			desc := r.sub.desc.row(m)
			for _, d := range desc {
				region[d] = stamp
			}
			var ps []int
			partial := false
			for _, d := range desc {
				switch r.status[d] {
				case stUnknown:
					partial = true
				case stAlive:
					if r.deadParents(int(d), region, stamp) {
						ps = append(ps, int(d))
					}
				}
			}
			res.mpans[m] = ps
			if partial {
				if res.partial == nil {
					res.partial = make(map[int]bool)
				}
				res.partial[m] = true
			}
		}
	})
	return res
}

// deadParents reports whether every parent of x in the region stamped
// stamp, a dead MTN's desc row, is dead. The MTN heading the row is dead
// itself, so the row alone stands for its region.
func (r *run) deadParents(x int, region []int32, stamp int32) bool {
	for _, p := range r.sub.parents.row(x) {
		if region[p] == stamp && r.status[p] != stDead {
			return false
		}
	}
	return true
}

// bytes estimates the result's size, for the SBH memo's bound: its arrays
// and its maps.
func (res *traverseResult) bytes() int {
	n := 8*(cap(res.aliveMTNs)+cap(res.deadMTNs)+cap(res.unresolved)) + mapBytes(len(res.mpans), 8+24)
	for _, ps := range res.mpans {
		n += 8 * cap(ps)
	}
	if res.partial != nil {
		n += mapBytes(len(res.partial), 8+8)
	}
	return n
}

// mapBytes bounds the heap a map of n entries takes when its key and value
// fill slot bytes. Go keeps a map's slots in groups of eight behind a
// header, each group with eight control bytes (and, before Go 1.24, an
// overflow pointer). A map has at least one group and doubles them only
// when they hold 6.5 entries each on average (7 from Go 1.24), so it has at
// most the fewest groups, a power of two, that hold six entries each. The
// quarter added covers the rounding of each allocation to a size class.
func mapBytes(n, slot int) int {
	groups := 1
	for 6*groups < n {
		groups *= 2
	}
	return 112 + groups*(16+8*slot)*5/4
}

// finish assembles a run's result once its traversal returns err. A run
// cut short by exhaustion reports what its statuses guarantee, a completed
// one must have classified every active MTN, and any other error is
// returned.
func (r *run) finish(err error) (traverseResult, error) {
	if err != nil && !errors.Is(err, errExhausted) {
		return traverseResult{}, err
	}
	var res traverseResult
	if r.res != nil {
		res = *r.res
	} else {
		res = r.result()
	}
	if n := len(res.unresolved); err == nil && n > 0 {
		return traverseResult{}, fmt.Errorf("core: MTN %s left unclassified", r.sub.node(res.unresolved[n-1]))
	}
	return res, nil
}

// merge folds a single-MTN result into an accumulated one (for the
// strategies without reuse).
func (res *traverseResult) merge(one traverseResult) {
	res.aliveMTNs = append(res.aliveMTNs, one.aliveMTNs...)
	res.deadMTNs = append(res.deadMTNs, one.deadMTNs...)
	for m, ps := range one.mpans {
		res.mpans[m] = ps
	}
	res.unresolved = append(res.unresolved, one.unresolved...)
	if len(one.partial) > 0 {
		if res.partial == nil {
			res.partial = make(map[int]bool)
		}
		for m := range one.partial {
			res.partial[m] = true
		}
	}
}

// traverse dispatches a Phase 3 strategy over the sub-lattice. workers > 1
// engages the probe scheduler's within-run level batches (RE: one batch).
// SBH stays serial regardless — its probe choices depend on every previous
// verdict.
// Exhaustion of the governor's deadline or budget is not an error: the
// traversal degrades to whatever the statuses it settled guarantee.
func (sys *System) traverse(ctx context.Context, sub *sublattice, oracle Oracle, sd seed, opts Options, workers int, gov *governor) (traverseResult, int, error) {
	inferred := 0

	switch opts.Strategy {
	case BU, TD:
		// One traversal per MTN with private knowledge: shared descendants
		// are re-probed for every MTN, which is exactly the redundancy the
		// with-reuse variants eliminate. The runs go one after another, so a
		// probe budget is spent in MTN order.
		acc := traverseResult{mpans: make(map[int][]int)}
		for mi := range sub.mtns {
			r := newRun(sub, oracle, []int{mi})
			r.ctx, r.workers, r.gov = ctx, workers, gov
			var err error
			if opts.Strategy == BU {
				err = r.bottomUp(sd)
			} else {
				err = r.topDown(sd)
			}
			one, ferr := r.finish(err)
			if ferr != nil {
				return traverseResult{}, 0, ferr
			}
			inferred += r.inferred
			if err != nil {
				// Graceful exhaustion: keep what this MTN's run established
				// and report the MTNs never reached as unresolved.
				one.unresolved = append(one.unresolved, sub.mtns[mi+1:]...)
				acc.merge(one)
				break
			}
			acc.merge(one)
		}
		sort.Ints(acc.aliveMTNs)
		sort.Ints(acc.deadMTNs)
		return acc, inferred, nil

	case BUWR, TDWR, SBH, RE:
		all := make([]int, len(sub.mtns))
		for i := range all {
			all[i] = i
		}
		r := newRun(sub, oracle, all)
		r.ctx, r.workers, r.gov = ctx, workers, gov
		var err error
		switch opts.Strategy {
		case BUWR:
			err = r.bottomUp(sd)
		case TDWR:
			err = r.topDown(sd)
		case RE:
			err = r.returnEverything(sd)
		default:
			err = r.scoreBased(sd, opts.Pa)
		}
		res, err := r.finish(err)
		if err != nil {
			return traverseResult{}, 0, err
		}
		return res, r.inferred, nil

	default:
		return traverseResult{}, 0, fmt.Errorf("core: unknown strategy %v", opts.Strategy)
	}
}
