package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/obs"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/sqltext"
	"kwsdbg/internal/storage"
	"kwsdbg/internal/vervec"
)

// This file is the prepared-probe pipeline: a Select is compiled once into a
// bound query (Prepare — names resolved, predicates classified, never redone),
// its per-alias plans are derived lazily and revalidated against the engine's
// version vector on every execution (re-plan only when a write intersected
// the plan's own FROM tables, never re-resolve), and the indexed candidate
// row sets that recur across the lattice nodes of one debug run can be shared
// through a CandidateCache. Phase 3 existence probes dominate the online
// cost, and before this layer every probe paid parse -> resolve -> plan
// against an immutable schema.

// maxReplanAttempts bounds every plan-under-churn loop in this file: the
// handle replan loop and the candidate-set recompute loop give up after the
// same number of retries, because both retries have the same trigger (a
// concurrent write landing inside the footprint mid-computation) and the
// same cost model. Exhaustion is counted in kwsdbg_plan_replan_giveup_total.
const maxReplanAttempts = 8

// ErrReplanChurn marks a replan abandoned because concurrent writes kept
// landing inside the plan's footprint on every attempt. It is wrapped as
// Transient: the retry layer backs off and re-enters the replan loop, which
// converges the moment the write storm pauses for one planning window.
var ErrReplanChurn = errors.New("engine: replan abandoned under sustained write churn")

// compiledPlan is one planning outcome: the per-depth steps (access paths in
// join order) valid while no write intersects the stamped footprint. It is
// immutable after construction, which is what lets concurrent executions
// share it through an atomic pointer.
type compiledPlan struct {
	stamp vervec.Stamp
	steps []step
}

// Prepared is a compiled, reusable query handle. The bound query is fixed at
// Prepare time (the schema is immutable after load); the plan is computed on
// first execution and recomputed only when the engine's version vector shows
// a write to one of the plan's own FROM tables — writes to unrelated tables
// leave it untouched. A Prepared is safe for concurrent ExecContext calls
// and may be shared across requests indefinitely — a stale handle never
// serves a stale plan, it re-plans.
type Prepared struct {
	e  *Engine
	bq *boundQuery
	// fp is the plan's footprint: the vector names of the query's FROM
	// tables, fixed at Prepare time. Plans read only these tables' indexes,
	// so the footprint slice of the version vector decides staleness.
	fp   []string
	plan atomic.Pointer[compiledPlan]
}

// Prepare compiles a SELECT into a reusable handle: name resolution and
// predicate classification happen here, once; planning is deferred to the
// first execution so a handle prepared ahead of need costs almost nothing.
func (e *Engine) Prepare(sel *sqltext.Select) (*Prepared, error) {
	bq, err := e.resolve(sel)
	if err != nil {
		return nil, err
	}
	mPlanCompiles.Inc()
	return &Prepared{e: e, bq: bq, fp: planFootprint(bq)}, nil
}

// planFootprint collects the distinct FROM tables of a bound query as
// version-vector names, in alias order (deterministic).
func planFootprint(bq *boundQuery) []string {
	seen := make(map[string]bool, len(bq.rels))
	names := make([]string, 0, len(bq.rels))
	for _, rel := range bq.rels {
		if k := vervec.TableKey(rel.Name); !seen[k] {
			seen[k] = true
			names = append(names, k)
		}
	}
	return names
}

// PrepareQuery parses and compiles a SELECT statement in one step.
func (e *Engine) PrepareQuery(sql string) (*Prepared, error) {
	stmt, err := sqltext.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqltext.Select)
	if !ok {
		return nil, fmt.Errorf("engine: Prepare requires SELECT, got %T", stmt)
	}
	return e.Prepare(sel)
}

// replan computes a fresh plan. The footprint is stamped before planning:
// planWith itself can advance the vector (Index attributes directly-appended
// rows while rebuilding), and stamping the earlier values errs in the safe
// direction — the next execution sees a stale stamp and plans again, it
// never trusts data the plan did not see. The loop converges as soon as no
// write intersecting the plan's own tables lands mid-plan; after
// maxReplanAttempts it gives up with a Transient-wrapped ErrReplanChurn so
// the retry layer backs off instead of spinning against the write storm.
func (p *Prepared) replan(cands *CandidateCache) (*compiledPlan, error) {
	mPlanReplans.Inc()
	for attempt := 0; ; attempt++ {
		st := p.e.vv.Stamp(p.fp)
		plans, order := p.e.planWith(p.bq, cands)
		if !p.e.vv.Stale(st) {
			cp := &compiledPlan{stamp: st, steps: compile(p.bq, plans, order)}
			p.plan.Store(cp)
			return cp, nil
		}
		if attempt >= maxReplanAttempts {
			mPlanReplanGiveup.Inc()
			return nil, Transient(fmt.Errorf("engine: %d plan attempts each raced a concurrent write: %w",
				attempt+1, ErrReplanChurn))
		}
	}
}

// Exec executes the prepared query; see ExecContext.
func (p *Prepared) Exec(cands *CandidateCache) (*Result, error) {
	return p.ExecContext(context.Background(), cands)
}

// ExecContext executes the prepared query with the same semantics as
// SelectContext — context checks during enumeration, transient-failure
// retries with backoff, the fault-injection hook — minus the per-call
// resolve/plan work. cands, when non-nil, shares indexed candidate sets with
// other handles executed against the same cache; nil plans privately.
//
// Flight recording on this path comes from the context (a ctx.Value walk per
// execution); the prepared oracle bypasses it via ExecFlight, which is the
// hot path and must not pay for a context lookup.
func (p *Prepared) ExecContext(ctx context.Context, cands *CandidateCache) (*Result, error) {
	return p.ExecFlight(ctx, cands, flight.FromContext(ctx), -1, "")
}

// ExecFlight is ExecContext with probe provenance: replan and retry events
// are recorded against the caller's probe identity (lattice node and
// probe-cache key); an execution that reuses its compiled plan records
// nothing here. fl may be nil; node -1 marks an event not tied to a lattice
// node.
func (p *Prepared) ExecFlight(ctx context.Context, cands *CandidateCache, fl *flight.Log, node int, probe string) (*Result, error) {
	pol := p.e.retryPolicy()
	delay := pol.BaseDelay
	// MaxDelay caps every backoff including the first: normalized() lets
	// BaseDelay exceed MaxDelay (each zero field defaults independently),
	// and the cap, not the base, is the configured ceiling.
	if delay > pol.MaxDelay {
		delay = pol.MaxDelay
	}
	for attempt := 1; ; attempt++ {
		res, err := p.execOnce(ctx, cands, fl, node, probe)
		if err == nil || attempt >= pol.MaxAttempts || !IsTransient(err) {
			return res, err
		}
		mSQLRetries.Inc()
		fl.Emit(flight.Retry, node, probe, false, 0, err.Error())
		logRetry(ctx, attempt, pol.MaxAttempts, err)
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
		if delay *= 2; delay > pol.MaxDelay {
			delay = pol.MaxDelay
		}
	}
}

// logRetry reports one transient-failure retry, carrying the request ID from
// the context so a retry storm is attributable to the request that suffered
// it rather than appearing as anonymous engine noise.
func logRetry(ctx context.Context, attempt, max int, err error) {
	slog.Default().LogAttrs(ctx, slog.LevelWarn, "transient failure, retrying",
		slog.String("request_id", obs.RequestID(ctx)),
		slog.Int("attempt", attempt),
		slog.Int("max_attempts", max),
		slog.String("error", err.Error()))
}

// execOnce is one execution attempt. The fault hook fires first, exactly as
// in the text path, so chaos tests exercise prepared probes identically.
func (p *Prepared) execOnce(ctx context.Context, cands *CandidateCache, fl *flight.Log, node int, probe string) (*Result, error) {
	if f := p.e.faultInjector(); f != nil {
		if err := f(); err != nil {
			mFaultsInjected.Inc()
			return nil, err
		}
	}
	start := time.Now()
	if cp := p.plan.Load(); cp != nil && !p.e.vv.Stale(cp.stamp) {
		return p.e.runPlan(ctx, p.bq, cp.steps, start)
	} else if cp != nil {
		fl.Emit(flight.Replan, node, probe, false, 0, "stale")
	} else {
		fl.Emit(flight.Replan, node, probe, false, 0, "cold")
	}
	cp, err := p.replan(cands)
	if err != nil {
		return nil, err
	}
	return p.e.runPlan(ctx, p.bq, cp.steps, start)
}

// CandidateCache shares the per-alias indexed candidate row sets of one debug
// run. Dozens of lattice nodes bind the same keyword to the same relation
// copy, so the same CONTAINS lookup — index probe, intersection, membership
// set — recurs across probes; entries are keyed by table plus the resolved
// predicate's signature (alias-independent), computed once under a
// single-flight, and revalidated against the entry's footprint slice of the
// engine's version vector so an INSERT between probes can never serve a
// stale set — while writes that cannot change the set (a different table, or
// rows missing the predicate's terms) leave it shared. The zero value is not
// usable; see NewCandidateCache. Safe for concurrent use.
type CandidateCache struct {
	mu sync.Mutex
	// entries maps predicate signature to its single-flight slot.
	// guarded by mu.
	entries map[string]*candEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// candEntry is one computed candidate set. stamp, groups, and set are
// written under once and immutable afterwards.
type candEntry struct {
	once sync.Once
	// stamp snapshots the entry's footprint (table counter first, then the
	// predicate's term counters) at compute time; groups are the footprint's
	// per-branch term indices (see candFootprint).
	stamp  vervec.Stamp
	groups [][]int
	set    rowSet
}

// candFootprint describes what a candidate set depends on. names[0] is the
// table's vector name; the rest are term names. groups holds, per indexable
// predicate branch, the indices into names of the terms a new row must carry
// to enter that branch's set — an empty group means any write to the table
// can change the set (integer-equality branches).
type candFootprint struct {
	names  []string
	groups [][]int
}

// candStale decides whether a cached candidate set may have changed: the
// epoch moved, or the table advanced AND some branch's terms all advanced
// with it. The conjunction is sound because a row can only join a CONTAINS
// branch's set when it carries every token of the branch's literal, and
// execInsert bumps a row's table and all its tokens atomically — so a write
// that changes the set necessarily advances the table and a full group
// together. A write into the table without the terms (or the terms into
// another table) proves the set unchanged, which is the whole point.
func (e *Engine) candStale(en *candEntry) bool {
	vv := e.vv
	if vv.EpochChanged(en.stamp.Epoch) {
		return true
	}
	if !vv.Advanced(en.stamp.Names[0], en.stamp.Vals[0]) {
		return false
	}
	if len(en.groups) == 0 {
		return true
	}
	for _, g := range en.groups {
		all := true
		for _, i := range g {
			if !vv.Advanced(en.stamp.Names[i], en.stamp.Vals[i]) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// NewCandidateCache returns an empty cache. One cache serves one logical
// request (a debug run); cross-request sharing belongs to the verdict-level
// probe cache, not here.
func NewCandidateCache() *CandidateCache {
	return &CandidateCache{entries: make(map[string]*candEntry)}
}

// Stats reports lookups answered from the cache versus computed.
func (c *CandidateCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// get returns the candidate set for key, computing it at most once per
// footprint state. A stale entry (a write intersected its footprint since it
// was computed) is replaced and recomputed; the loop is bounded by
// maxReplanAttempts because every retry requires an actual concurrent
// footprint-intersecting mutation, and even the bounded fallback is no
// weaker than uncached planning, which also reads the index at one instant —
// exhaustion is surfaced through kwsdbg_plan_replan_giveup_total rather than
// an error, because the planning paths this feeds cannot propagate one.
func (c *CandidateCache) get(e *Engine, key string, fp candFootprint, compute func() []storage.RowID) *candEntry {
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		en, ok := c.entries[key]
		if !ok {
			en = &candEntry{}
			c.entries[key] = en
		}
		c.mu.Unlock()
		computed := false
		en.once.Do(func() {
			computed = true
			// Stamp before computing: a write landing mid-compute makes
			// the stamp stale rather than vouching for rows it never saw.
			en.stamp = e.vv.Stamp(fp.names)
			en.groups = fp.groups
			en.set = newRowSet(compute())
		})
		if computed {
			c.misses.Add(1)
			mCandSetMisses.Inc()
		} else {
			c.hits.Add(1)
			mCandSetHits.Inc()
		}
		if !e.candStale(en) {
			return en
		}
		if attempt >= maxReplanAttempts {
			mPlanReplanGiveup.Inc()
			return en
		}
		mCandSetStale.Inc()
		c.mu.Lock()
		if c.entries[key] == en {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
}

// candKey builds the cache key for one alias-local predicate: the table name
// plus the resolved predicate signature. Column positions, operators, and
// kind-tagged literal values identify the candidate set exactly; the alias
// name does not participate, which is the whole point — t0 and t3 bound to
// the same relation with the same keyword share one set.
func candKey(table string, p rpred) string {
	var sb strings.Builder
	sb.WriteString(table)
	sb.WriteByte(0)
	appendPredSig(&sb, p)
	return sb.String()
}

func appendPredSig(sb *strings.Builder, p rpred) {
	switch pr := p.(type) {
	case *rcmp:
		fmt.Fprintf(sb, "c%d;%s;", pr.left.c, pr.op)
		switch pr.lit.Kind {
		case sqltext.LitInt:
			fmt.Fprintf(sb, "i%d", pr.lit.I)
		case sqltext.LitFloat:
			fmt.Fprintf(sb, "f%g", pr.lit.F)
		case sqltext.LitString:
			sb.WriteByte('s')
			sb.WriteString(pr.lit.S)
		}
	case *ror:
		sb.WriteByte('(')
		for _, t := range pr.terms {
			appendPredSig(sb, t)
			sb.WriteByte('|')
		}
		sb.WriteByte(')')
	}
}

// indexableShape reports whether indexable() would accept the predicate,
// without touching any index — the structural precondition shared by the
// cached and uncached planning paths. Must mirror indexable's cases exactly.
func indexableShape(bq *boundQuery, a int, p rpred) bool {
	switch pr := p.(type) {
	case *rcmp:
		if pr.isCol {
			return false
		}
		col := bq.rels[a].Columns[pr.left.c]
		return pr.op == sqltext.OpContains ||
			(pr.op == sqltext.OpEq && col.Type == catalog.Int && pr.lit.Kind == sqltext.LitInt)
	case *ror:
		for _, t := range pr.terms {
			if !indexableShape(bq, a, t) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// candidateSet resolves one indexable local predicate to its candidate rows,
// through the cache when one is supplied; a cached set comes with the
// entry's rowSet. The bool mirrors indexable's: false means the predicate has
// no index path and must be evaluated per row.
func (e *Engine) candidateSet(bq *boundQuery, ix *invidx.Index, a int, p rpred, cands *CandidateCache) ([]storage.RowID, *rowSet, bool) {
	if !indexableShape(bq, a, p) {
		return nil, nil, false
	}
	if cands == nil {
		ids, _ := e.indexable(bq, ix, a, p)
		return ids, nil, true
	}
	table := bq.rels[a].Name
	en := cands.get(e, candKey(table, p), candFP(table, p), func() []storage.RowID {
		ids, _ := e.indexable(bq, ix, a, p)
		return ids
	})
	return en.set.ids, &en.set, true
}

// candFP builds the footprint of one indexable predicate: the table's vector
// name plus, per CONTAINS branch, the branch literal's tokens as one term
// group. Non-CONTAINS branches contribute an empty group (any table write
// may change them).
func candFP(table string, p rpred) candFootprint {
	fp := candFootprint{names: []string{vervec.TableKey(table)}}
	idx := make(map[string]int)
	var walk func(p rpred)
	walk = func(p rpred) {
		switch pr := p.(type) {
		case *rcmp:
			if pr.op == sqltext.OpContains && pr.lit.Kind == sqltext.LitString {
				var g []int
				for _, tok := range invidx.Tokenize(pr.lit.S) {
					k := vervec.TermKey(tok)
					i, ok := idx[k]
					if !ok {
						i = len(fp.names)
						idx[k] = i
						fp.names = append(fp.names, k)
					}
					g = append(g, i)
				}
				fp.groups = append(fp.groups, g)
			} else {
				fp.groups = append(fp.groups, nil)
			}
		case *ror:
			for _, t := range pr.terms {
				walk(t)
			}
		}
	}
	walk(p)
	return fp
}
