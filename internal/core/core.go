// Package core implements the paper's online phases on top of the offline
// lattice: keyword binding and pruning (Phase 1), discovery of the Minimal
// Total Nodes that play the role of candidate networks (Phase 2), and the
// lattice traversals that classify each MTN as an answer or non-answer and
// explain every non-answer through its Maximal Partially Alive Nodes
// (Phase 3). It also provides the paper's two comparison baselines,
// Return Nothing and Return Everything (§3.8).
package core

import (
	"context"
	"database/sql"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/core/bitprobe"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/probecache"
	"kwsdbg/internal/sqldriver"
	"kwsdbg/internal/storage"
)

// Strategy selects the Phase 3 lattice traversal.
type Strategy int

// The five traversal strategies of §2.5.
const (
	BU   Strategy = iota // bottom-up, one MTN at a time
	TD                   // top-down, one MTN at a time
	BUWR                 // bottom-up with reuse across MTNs (Algorithm 3)
	TDWR                 // top-down with reuse across MTNs
	SBH                  // score-based greedy heuristic (§2.5.3)
)

// String returns the paper's abbreviation for the strategy.
func (s Strategy) String() string {
	switch s {
	case BU:
		return "BU"
	case TD:
		return "TD"
	case BUWR:
		return "BUWR"
	case TDWR:
		return "TDWR"
	case SBH:
		return "SBH"
	case RE:
		return "RE"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all five traversals in the paper's presentation order.
var Strategies = []Strategy{BU, BUWR, TD, TDWR, SBH}

// System is a keyword-search-over-structured-data debugger: an engine, its
// inverted index, and the offline lattice of Phase 0. Safe for concurrent
// Debug calls.
type System struct {
	eng *engine.Engine
	lat *lattice.Lattice
	db  *sql.DB

	// cache, when set, carries aliveness verdicts across Debug calls; see
	// SetProbeCache. Atomic because servers install or swap it while
	// concurrent Debug calls are running.
	cache atomic.Pointer[probecache.Cache]

	// prepared is the cross-request cache of compiled probe handles, keyed
	// by probe identity (canonical node label + keyword binding). A handle
	// found here skips render, parse, resolve, and — unless a write touched
	// its tables — planning; entries self-revalidate, so the cache never
	// needs flushing on INSERT.
	prepared *engine.PreparedCache

	// bits is the bitset probe engine: cross-request compiled join-tree
	// plans, candidate bitmaps, and stamped verdict memos. Like prepared,
	// entries self-revalidate against the engine's version vector, so the
	// evaluator never needs flushing on INSERT.
	bits *bitprobe.Evaluator
}

// NewSystem wires an engine and a pre-generated lattice together. The lattice
// must have been generated from the engine's schema.
func NewSystem(eng *engine.Engine, lat *lattice.Lattice) (*System, error) {
	if eng.Database().Schema() != lat.Schema() {
		return nil, fmt.Errorf("core: lattice was generated from a different schema")
	}
	sys := &System{
		eng: eng, lat: lat, db: sqldriver.OpenDB(eng),
		prepared: engine.NewPreparedCache(engine.DefaultPlanCacheSize, "prepared"),
		bits:     bitprobe.New(eng),
	}
	// An open sql.DB is held by its connection goroutine, and through it the
	// engine; closing it once the System is unreachable lets both be
	// collected.
	runtime.SetFinalizer(sys, func(sys *System) { sys.db.Close() })
	return sys, nil
}

// Build performs Phase 0 for an engine: generate the lattice and construct
// the system.
func Build(eng *engine.Engine, opts lattice.Options) (*System, error) {
	lat, err := lattice.GenerateOpts(eng.Database().Schema(), opts)
	if err != nil {
		return nil, err
	}
	return NewSystem(eng, lat)
}

// Lattice returns the offline lattice.
func (sys *System) Lattice() *lattice.Lattice { return sys.lat }

// Engine returns the underlying execution engine.
func (sys *System) Engine() *engine.Engine { return sys.eng }

// DB returns the database/sql handle the debugger issues its probes through.
func (sys *System) DB() *sql.DB { return sys.db }

// SetProbeCache installs (or, with nil, removes) a cross-request aliveness
// cache. Verdicts learned by one Debug call then answer identical probes in
// later calls — different strategies, different keyword queries binding the
// same sub-queries, repeated requests — without executing SQL. Each run syncs
// the cache to the engine's version vector before its first probe, so no
// verdict a write could have changed is served: a dead verdict whose tables
// the write touched turns suspect and is re-probed, and an epoch bump drops
// every stamped verdict (see package probecache). Probe *counts*
// (Stats.SQLExecuted) are unaffected: a cache hit is a probe the strategy
// spent, just one the database did not have to answer; the savings show up
// in Stats.CacheHits.
func (sys *System) SetProbeCache(c *probecache.Cache) { sys.cache.Store(c) }

// ProbeCache returns the installed cross-request cache, or nil.
func (sys *System) ProbeCache() *probecache.Cache { return sys.cache.Load() }

// PreparedCache returns the cross-request probe-handle cache, for health
// stats and benchmarks.
func (sys *System) PreparedCache() *engine.PreparedCache { return sys.prepared }

// SetPlanCacheSize rebounds both plan caches — the System's probe-handle
// cache and the engine's text-path cache — to max entries each; 0 disables
// them, negative means unbounded.
func (sys *System) SetPlanCacheSize(max int) {
	sys.prepared.Resize(max)
	sys.eng.PlanCache().Resize(max)
}

// PurgePlanCaches empties both plan caches without changing their bounds;
// benchmarks use it to measure cold-path compile costs.
func (sys *System) PurgePlanCaches() {
	sys.prepared.Purge()
	sys.eng.PlanCache().Purge()
}

// PurgeBitsetCaches drops the bitset engine's compiled plans, verdict memos,
// and candidate bitmaps; benchmarks use it to measure the cold bitset path.
func (sys *System) PurgeBitsetCaches() { sys.bits.Purge() }

// Stats aggregates the measurements of one debugging run — every quantity
// §3 of the paper reports.
type Stats struct {
	// Phase 1.
	MapTime      time.Duration // keyword -> relation binding via the inverted index
	PruneTime    time.Duration // lattice pruning
	LatticeNodes int           // nodes in the offline lattice
	PrunedNodes  int           // nodes surviving keyword pruning

	// Phase 2.
	MTNTime    time.Duration
	MTNs       int
	SubNodes   int         // nodes in the MTNs' descendant closure
	DescTotal  int         // descendants of MTNs, with multiplicity
	DescUnique int         // unique descendants
	MTNLevels  map[int]int // MTN count per lattice level
	MPANLevels map[int]int // MPAN count per lattice level (after Phase 3)

	// Phase 3.
	Strategy    Strategy
	SQLExecuted int
	// SQLTime is wall time spent servicing the probes the cache did not
	// answer, on every probe step: rendering or handle resolution (compile
	// included), a declined bitset attempt, and execution.
	SQLTime      time.Duration
	TraverseTime time.Duration
	Inferred     int // nodes classified without executing SQL
	// CacheHits is how many of SQLExecuted were answered by the
	// cross-request probe cache instead of the database. Unlike the counts
	// above it depends on execution state (what earlier requests warmed),
	// not just the query.
	CacheHits int

	// Prepared-pipeline accounting. Like CacheHits these depend on
	// execution state — what earlier requests compiled and what this run's
	// probes shared — never on the query, so they are excluded from the
	// report JSON and from output-identity comparisons. All three are zero
	// on the text path.
	PlanCompiles  int // probe handles compiled this run (handle-cache misses)
	CandSetHits   int // candidate-set lookups shared from the run's cache
	CandSetMisses int // candidate-set lookups computed from the index

	// Verdict-repair accounting, execution-dependent like the block above:
	// Suspects is how many probes found their cached dead verdict
	// downgraded by an intervening write, Repaired how many fresh
	// verdicts this run stored back for them.
	Suspects int
	Repaired int

	// Bitset-path accounting, execution-dependent like the blocks above:
	// BitsetHits counts probes answered by bitmap semi-joins without SQL,
	// BitsetFallbacks probes the bitset engine declined to the prepared
	// path. Both are zero unless Options.BitsetProbes was set.
	BitsetHits      int
	BitsetFallbacks int
}

// SQLIssued is the number of probes that actually reached the database:
// SQLExecuted minus the cache hits.
func (s Stats) SQLIssued() int { return s.SQLExecuted - s.CacheHits }

// ReusePercent is Figure 13's metric: 100 * (1 - unique/total) over MTN
// descendants; zero when MTNs have no descendants.
func (s Stats) ReusePercent() float64 {
	if s.DescTotal == 0 {
		return 0
	}
	return 100 * (1 - float64(s.DescUnique)/float64(s.DescTotal))
}

// QueryInfo describes one lattice node as a user-facing query.
type QueryInfo struct {
	NodeID int
	Level  int
	// Tree is the human-readable join tree, e.g. "Person#1-writes#0-Publication#2".
	Tree string
	// SQL is the instantiated query that returns the node's tuples.
	SQL string
}

// NonAnswer is a dead MTN together with its explanation.
type NonAnswer struct {
	Query QueryInfo
	// MPANs are the maximal alive sub-queries: the frontier causes of the
	// non-answer.
	MPANs []QueryInfo
	// Incomplete marks an explanation cut short by deadline or probe-budget
	// exhaustion: every MPAN listed is guaranteed (it is an MPAN of the
	// unbudgeted run too), but more may exist.
	Incomplete bool
}

// Output is the full result of debugging one keyword query: the paper's
// O(K) = A(K) u N(K) u M(K), plus measurements.
type Output struct {
	Keywords []string
	// NonKeywords lists keywords that occur nowhere in the database; when
	// non-empty the system reports them and stops (§2.3).
	NonKeywords []string
	Answers     []QueryInfo
	NonAnswers  []NonAnswer
	Stats       Stats

	// Incomplete reports that the run exhausted its Options.Deadline or
	// ProbeBudget before classifying everything. Everything present is still
	// valid — answers and non-answers are true classifications and every
	// listed MPAN is an MPAN of the unbudgeted run — but Unclassified MTNs
	// and per-NonAnswer Incomplete flags mark what the frontier left open.
	// IncompleteReason is ReasonProbeBudget or ReasonDeadline.
	Incomplete       bool
	IncompleteReason string
	// Unclassified lists the candidate networks the exhausted run never
	// settled: each could be an answer or a non-answer.
	Unclassified []QueryInfo
}

// Options tunes a Debug run.
type Options struct {
	Strategy Strategy
	// Pa is the aliveness prior of the score-based heuristic; the paper's
	// default 0.5 is used when zero.
	Pa float64
	// Workers bounds the probe scheduler's concurrency: <= 1 (the default)
	// probes serially, exactly as before; larger values probe independent
	// lattice nodes — same-level batch members, or whole per-MTN runs for
	// BU/TD — from that many goroutines. Any worker count produces the same
	// Output and the same SQLExecuted as the serial run; SBH ignores the
	// setting because its probe order is inherently sequential. Values above
	// 64 are clamped.
	Workers int
	// BypassCache disables the System's cross-request verdict cache for
	// this run: no lookups, no stores, so every probe runs its evaluation
	// step. On the bitset step the evaluator's own per-plan verdict memo
	// still answers repeat probes over unchanged tables (its verdicts are
	// stamped, never stale); PurgeBitsetCaches drops it for cold costs.
	BypassCache bool
	// TextProbes forces Phase 3 probes through the rendered-SQL +
	// database/sql text path instead of compiled engine handles. The two
	// paths produce byte-identical Output and probe counts (property-tested
	// at several worker counts); the text path exists as the reference
	// implementation, for benchmark comparison, and for backends reachable
	// only through a database/sql driver.
	TextProbes bool
	// BitsetProbes routes Phase 3 probes through the bitset engine: bitmap
	// semi-joins over inverted-index candidate sets, falling back to the
	// prepared path per probe for shapes the engine cannot cover. Output is
	// byte-identical to the prepared path (property-tested at several
	// worker counts). Mutually exclusive with TextProbes.
	BitsetProbes bool
	// Deadline bounds the wall time Phase 3 may spend probing; zero means
	// unlimited. Unlike cancelling the DebugContext context — which aborts
	// the run with an error — an expired Deadline degrades gracefully: the
	// run stops probing, keeps every verdict already committed, and returns
	// a partial Output flagged Incomplete.
	Deadline time.Duration
	// ProbeBudget caps the number of probes the run may spend, counted
	// exactly like Stats.SQLExecuted (cache hits included); <= 0 means
	// unlimited. A budget of at least the serial run's probe count never
	// trips for any worker count; a smaller one yields a partial, Incomplete
	// Output whose reported MPANs are a subset of the unbudgeted run's.
	ProbeBudget int
	// Filter, when non-nil, restricts the candidate networks considered:
	// MTNs for which it returns false are dropped after Phase 2, before any
	// probing. This is the paper's §5 future-work hook ("pushing
	// user-defined constraints into the search procedure might greatly
	// prune the search space") — e.g. exclude interpretations through a
	// noisy relation, or cap the number of free tuple sets.
	Filter func(n *lattice.Node) bool
}

// Debug runs phases 1-3 for a keyword query and explains every non-answer.
func (sys *System) Debug(keywords []string, opts Options) (*Output, error) {
	return sys.debugWith(context.Background(), keywords, opts, nil)
}

// DebugContext is Debug with cancellation: the context is checked before
// every SQL probe, so a level-7 Return-Everything run can be abandoned
// mid-traversal.
func (sys *System) DebugContext(ctx context.Context, keywords []string, opts Options) (*Output, error) {
	return sys.debugWith(ctx, keywords, opts, nil)
}

// debugWith is the shared pipeline behind Debug and Session.Run; sess, when
// non-nil, layers the session's pins and memo over both the SQL oracle and
// the base-level classification rule. It records each phase in the
// Output's Stats and in the obs metrics; a traced response renders its phase
// tree from those Stats (see report.Trace).
func (sys *System) debugWith(ctx context.Context, keywords []string, opts Options, sess *Session) (out *Output, err error) {
	defer func() {
		status := "ok"
		switch {
		case err != nil:
			status = "error"
		case out != nil && out.Incomplete:
			status = "incomplete"
		}
		mDebugTotal.With(opts.Strategy.String(), status).Inc()
	}()
	if opts.Pa == 0 {
		opts.Pa = 0.5
	}
	if opts.Pa < 0 || opts.Pa >= 1 {
		return nil, fmt.Errorf("core: pa must be in [0, 1), got %v", opts.Pa)
	}
	if opts.TextProbes && opts.BitsetProbes {
		return nil, fmt.Errorf("core: TextProbes and BitsetProbes are mutually exclusive")
	}
	ph, err := sys.phase12(keywords)
	if err != nil {
		return nil, err
	}
	out = &Output{Keywords: keywords, NonKeywords: ph.nonKeywords, Stats: ph.stats}
	out.Stats.Strategy = opts.Strategy
	mtnIDs := ph.mtnIDs
	if opts.Filter != nil {
		kept := mtnIDs[:0:0]
		for _, id := range mtnIDs {
			if opts.Filter(sys.lat.Node(id)) {
				kept = append(kept, id)
			}
		}
		mtnIDs = kept
		out.Stats.MTNs = len(mtnIDs)
	}
	mMTNs.Observe(float64(out.Stats.MTNs))
	if len(ph.nonKeywords) > 0 || len(mtnIDs) == 0 {
		return out, nil
	}

	sub := buildSublattice(sys.lat, mtnIDs)
	out.Stats.SubNodes = sub.len()
	out.Stats.DescTotal, out.Stats.DescUnique = sub.descendantStats()
	mReusePercent.Set(out.Stats.ReusePercent())

	// The governor meters Phase 3: probes run under probeCtx (the caller's
	// context plus the optional Deadline) so an expired deadline interrupts
	// even an in-flight SQL probe, while the caller's own cancellation stays
	// a hard error.
	probeCtx, cancelProbes := ctx, func() {}
	if opts.Deadline > 0 {
		probeCtx, cancelProbes = context.WithTimeout(ctx, opts.Deadline)
	}
	defer cancelProbes()
	gov := newGovernor(ctx, probeCtx, opts.ProbeBudget)

	// The flight log is resolved from the context exactly once per run and
	// handed to every hot-path participant as a field; probes never walk the
	// context chain, so an unrecorded run pays one nil check per emission
	// point and nothing else.
	fl := flight.FromContext(ctx)
	gov.fl = fl

	// The probe oracle: compiled engine handles by default, bitmap
	// semi-joins or rendered SQL through database/sql when the caller asks.
	// Every step shares the verdict cache and produces identical Output.
	base := sys.newOracle(probeCtx, keywords, fl)
	switch {
	case opts.TextProbes:
		base.db = sys.db
	case opts.BitsetProbes:
		base.bits = sys.bits
	}
	if cache := sys.ProbeCache(); cache != nil && !opts.BypassCache {
		// Sync the cache's version view before the first probe could read a
		// verdict: writes that landed since the last run turn intersecting
		// dead verdicts into suspects (re-probed and repaired) while disjoint
		// and alive verdicts keep serving hits. The returned view is this
		// run's stamp for stored verdicts.
		base.view = cache.SyncVersions(sys.eng.Versions())
		base.cache = cache
	}
	var oracle Oracle = base
	sd := seed{baseAlive: sys.baseAliveFunc()}
	if sess != nil {
		oracle = &sessionOracle{inner: base, s: sess}
		sd.pins = sess.pinned
	}
	workers := ClampWorkers(opts.Workers)
	start := clock.Now()
	res, inferred, err := sys.traverse(ctx, sub, oracle, sd, opts, workers, gov, fl)
	if err == nil {
		// A caller cancellation that lands after the last commit must not
		// let the run masquerade as completed: check before any stats or
		// counters are recorded.
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	if reason, tripped := gov.exhausted(); tripped {
		out.Incomplete = true
		out.IncompleteReason = reason
	}
	out.Stats.TraverseTime = clock.Since(start)
	base.fill(&out.Stats)
	out.Stats.Inferred = inferred
	strat := opts.Strategy.String()
	mPhaseSeconds.With("traverse").Observe(out.Stats.TraverseTime.Seconds())
	mProbes.With(strat).Add(float64(out.Stats.SQLExecuted))
	mInferred.With(strat).Add(float64(out.Stats.Inferred))

	out.Stats.MPANLevels = make(map[int]int)
	for _, m := range res.aliveMTNs {
		out.Answers = append(out.Answers, sys.queryInfo(sub.nodeID[m], keywords))
	}
	for _, m := range res.deadMTNs {
		na := NonAnswer{Query: sys.queryInfo(sub.nodeID[m], keywords), Incomplete: res.partial[m]}
		for _, p := range res.mpans[m] {
			na.MPANs = append(na.MPANs, sys.queryInfo(sub.nodeID[p], keywords))
			out.Stats.MPANLevels[sub.level[p]]++
		}
		// Present the most specific explanations first: an MPAN covering
		// more of the query (higher level) is usually the actionable one.
		sort.SliceStable(na.MPANs, func(i, j int) bool {
			if na.MPANs[i].Level != na.MPANs[j].Level {
				return na.MPANs[i].Level > na.MPANs[j].Level
			}
			return na.MPANs[i].Tree < na.MPANs[j].Tree
		})
		out.NonAnswers = append(out.NonAnswers, na)
	}
	sort.Ints(res.unresolved)
	for _, m := range res.unresolved {
		out.Unclassified = append(out.Unclassified, sys.queryInfo(sub.nodeID[m], keywords))
	}
	return out, nil
}

// Analyze runs phases 1 and 2 only — keyword binding, pruning, MTN
// discovery, and the descendant-overlap statistics — without probing any
// node. The experiment harness uses it for the measurements of Figure 10 and
// Figure 13, which are traversal-independent.
func (sys *System) Analyze(keywords []string) (Stats, error) {
	ph, err := sys.phase12(keywords)
	if err != nil {
		return Stats{}, err
	}
	stats := ph.stats
	if len(ph.nonKeywords) > 0 || len(ph.mtnIDs) == 0 {
		return stats, nil
	}
	sub := buildSublattice(sys.lat, ph.mtnIDs)
	stats.SubNodes = sub.len()
	stats.DescTotal, stats.DescUnique = sub.descendantStats()
	return stats, nil
}

// queryInfo renders a node for user consumption.
func (sys *System) queryInfo(nodeID int, keywords []string) QueryInfo {
	n := sys.lat.Node(nodeID)
	sqlText, err := sys.lat.SQL(n, keywords, false)
	if err != nil {
		// Unreachable for nodes that survived Phase 1; keep the tree view.
		sqlText = "-- " + err.Error()
	}
	return QueryInfo{NodeID: nodeID, Level: n.Level, Tree: n.String(), SQL: sqlText}
}

// phase12 holds the outcome of phases 1 and 2 for one keyword query.
type phase12Result struct {
	keywords    []string
	nonKeywords []string
	// bindings[j] is the set of relations containing keyword j+1.
	bindings []map[string]bool
	// surviving lattice node IDs (Phase 1) and the MTNs among them (Phase 2).
	surviving []int
	mtnIDs    []int
	stats     Stats
}

// phase12 binds keywords to relations, prunes the lattice, and finds MTNs.
func (sys *System) phase12(keywords []string) (*phase12Result, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("core: empty keyword query")
	}
	if len(keywords) > sys.lat.KeywordSlots() {
		return nil, fmt.Errorf("core: query has %d keywords; lattice supports %d",
			len(keywords), sys.lat.KeywordSlots())
	}
	ph := &phase12Result{keywords: keywords}
	ph.stats.LatticeNodes = sys.lat.Len()

	// Phase 1a: keyword -> relation binding via the inverted index.
	start := clock.Now()
	ix := sys.eng.Index()
	for _, kw := range keywords {
		tables := ix.Tables(kw)
		if len(tables) == 0 {
			ph.nonKeywords = append(ph.nonKeywords, kw)
			continue
		}
		set := make(map[string]bool, len(tables))
		for _, t := range tables {
			set[t] = true
		}
		ph.bindings = append(ph.bindings, set)
	}
	ph.stats.MapTime = clock.Since(start)
	mPhaseSeconds.With("map").Observe(ph.stats.MapTime.Seconds())
	if len(ph.nonKeywords) > 0 {
		// "And" semantics: a keyword absent from the data means the whole
		// query has no answers; report the missing keywords and stop.
		return ph, nil
	}

	// Phase 1b: prune nodes with unbindable keyword copies.
	start = clock.Now()
	n := len(keywords)
	for id := 0; id < sys.lat.Len(); id++ {
		node := sys.lat.Node(id)
		ok := true
		for _, v := range node.Vertices {
			if v.Copy == 0 {
				continue
			}
			if v.Copy > n || !ph.bindings[v.Copy-1][v.Rel] {
				ok = false
				break
			}
		}
		if ok {
			ph.surviving = append(ph.surviving, id)
		}
	}
	ph.stats.PruneTime = clock.Since(start)
	ph.stats.PrunedNodes = len(ph.surviving)
	mPhaseSeconds.With("prune").Observe(ph.stats.PruneTime.Seconds())

	// Phase 2: minimal total nodes. A surviving node is total when every
	// keyword index occurs among its copies; it is minimal when no
	// leaf-removed child is total. (Children of survivors always survive:
	// pruning is downward closed.)
	start = clock.Now()
	ph.stats.MTNLevels = make(map[int]int)
	for _, id := range ph.surviving {
		node := sys.lat.Node(id)
		if !node.IsTotal(n) {
			continue
		}
		minimal := true
		for _, c := range node.Children {
			if sys.lat.Node(c).IsTotal(n) {
				minimal = false
				break
			}
		}
		if minimal {
			ph.mtnIDs = append(ph.mtnIDs, id)
			ph.stats.MTNLevels[node.Level]++
		}
	}
	ph.stats.MTNTime = clock.Since(start)
	ph.stats.MTNs = len(ph.mtnIDs)
	mPhaseSeconds.With("mtn").Observe(ph.stats.MTNTime.Seconds())
	sort.Ints(ph.mtnIDs)
	return ph, nil
}

// baseAliveFunc returns the level-1 aliveness rule: keyword-bound base nodes
// are alive by construction (Phase 1 verified the keyword occurs in the
// relation via the inverted index), and free base nodes are alive iff their
// table is non-empty. No SQL is executed for base nodes, matching
// Algorithm 3, which skips execSQL for the nodes in B.
func (sys *System) baseAliveFunc() func(nodeID int) bool {
	return func(nodeID int) bool {
		node := sys.lat.Node(nodeID)
		v := node.Vertices[0]
		if v.Copy != 0 {
			return true
		}
		tbl, ok := sys.eng.Database().Table(v.Rel)
		return ok && tbl.RowCount() > 0
	}
}

// Results executes a node's full (non-existence) query and returns its
// tuples, for presenting answer queries and MPAN contents to the developer.
func (sys *System) Results(nodeID int, keywords []string, limit int) ([]string, [][]storage.Value, error) {
	n := sys.lat.Node(nodeID)
	sel, err := sys.lat.Select(n, keywords, false)
	if err != nil {
		return nil, nil, err
	}
	sel.Limit = limit
	res, err := sys.eng.Select(sel)
	if err != nil {
		return nil, nil, err
	}
	return res.Columns, res.Rows, nil
}

// Bindings exposes Phase 1's keyword->relations mapping for tools.
func (sys *System) Bindings(keywords []string) (map[string][]string, error) {
	ix := sys.eng.Index()
	out := make(map[string][]string, len(keywords))
	for _, kw := range keywords {
		out[kw] = ix.Tables(kw)
	}
	return out, nil
}
