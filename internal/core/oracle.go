package core

import (
	"context"
	"database/sql"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/probecache"
	"kwsdbg/internal/vervec"
)

// Oracle answers aliveness probes for lattice nodes: does the node's
// instantiated query return at least one tuple? Implementations must be safe
// for concurrent IsAlive calls, because the Phase 3 scheduler probes
// independent nodes from Options.Workers goroutines at once.
type Oracle interface {
	IsAlive(nodeID int) (bool, error)
}

// nodeFootprint is the version-vector footprint of a node's existence query:
// the distinct relations its join tree reads (suspect trigger set) plus the
// inverted-index tokens of its bound keywords (provenance). Slices are sorted
// so the footprint — which reaches ledgers through cache internals — is
// deterministic regardless of vertex order.
func nodeFootprint(lat *lattice.Lattice, nodeID int, keywords []string) probecache.Footprint {
	node := lat.Node(nodeID)
	tabs := make(map[string]struct{}, len(node.Vertices))
	terms := make(map[string]struct{}, len(node.Vertices))
	for _, v := range node.Vertices {
		tabs[vervec.TableKey(v.Rel)] = struct{}{}
		if v.Copy >= 1 && v.Copy <= len(keywords) {
			for _, tok := range invidx.Tokenize(keywords[v.Copy-1]) {
				terms[vervec.TermKey(tok)] = struct{}{}
			}
		}
	}
	tabList := make([]string, 0, len(tabs))
	for t := range tabs {
		tabList = append(tabList, t)
	}
	sort.Strings(tabList)
	termList := make([]string, 0, len(terms))
	for t := range terms {
		termList = append(termList, t)
	}
	sort.Strings(termList)
	return probecache.Footprint{Tables: tabList, Terms: termList}
}

// oracle is the probe pipeline of one debugging run. Every probe takes the
// same sequence — verdict-cache lookup, evaluation, store, repair — and only
// the evaluation step differs, chosen by whether db is set:
//
//   - db != nil (Options.TextProbes): render the node's "SELECT 1 ... LIMIT 1"
//     and run it through database/sql, as the paper's implementation did
//     through JDBC — the reference the prepared step is property-tested
//     against;
//   - otherwise (the default): execute the node's compiled engine.Prepared
//     handle, shared across requests through the System's handle cache and
//     revalidated against the data version on every execution.
type oracle struct {
	ctx      context.Context
	lat      *lattice.Lattice
	sub      *sublattice
	keywords []string

	eng     *engine.Engine
	handles *engine.PreparedCache
	// cands shares indexed candidate row sets across this run's prepared
	// executions.
	cands *engine.CandidateCache
	db    *sql.DB

	// cache, when non-nil, is the cross-request aliveness cache; verdicts
	// are looked up by probe key before evaluation and stored after. view is
	// this run's version-vector snapshot, taken by debugWith before the
	// first probe, that stored verdicts are stamped against.
	cache *probecache.Cache
	view  *vervec.View

	// fl records probe provenance; nil when the run is not recorded. Plan
	// and retry events on the text step come from the engine via the
	// context instead (database/sql hides the call chain), tagged node -1.
	fl *flight.Log

	// keys holds each sub node's probe identity — canonical label plus
	// keyword binding, shared by the verdict cache, the handle cache and
	// every flight event — in the table of the run's keyword tuple, which
	// the sublattice's key memo shares between runs.
	keys *keyTable
	// prepared memoizes each node's resolved prepared handle by sub index,
	// filled on the node's first evaluation. It stays per run: handles
	// shared through the sublattice would outlive the handle cache's bound.
	prepared []atomic.Pointer[engine.Prepared]

	executed  atomic.Int64
	cacheHits atomic.Int64
	compiled  atomic.Int64
	sqlNanos  atomic.Int64
	suspects  atomic.Int64
	repaired  atomic.Int64
}

// newOracle builds a run's oracle over the run's sublattice, on the
// prepared step with no verdict cache; callers set db to pick the text
// step. fl may be nil.
func (sys *System) newOracle(ctx context.Context, sub *sublattice, keywords []string, fl *flight.Log) *oracle {
	return &oracle{
		ctx: ctx, lat: sys.lat, sub: sub, keywords: keywords, fl: fl,
		eng: sys.eng, handles: sys.prepared, cands: engine.NewCandidateCache(),
		keys: sub.keys(keywords), prepared: make([]atomic.Pointer[engine.Prepared], sub.len()),
	}
}

// node returns a probed node's sub index and probe key. A node outside the
// run's sublattice is a caller bug.
func (o *oracle) node(nodeID int) (int, string, error) {
	x, ok := o.sub.index(nodeID)
	if !ok {
		return 0, "", fmt.Errorf("core: probe of node %d outside the run's sublattice", nodeID)
	}
	return x, o.keys.key(x), nil
}

// IsAlive implements Oracle.
//
//kws:hotpath
func (o *oracle) IsAlive(nodeID int) (bool, error) {
	x, key, err := o.node(nodeID)
	if err != nil {
		return false, err
	}
	suspect := false
	if o.cache != nil {
		alive, outcome := o.cache.Lookup(key)
		if outcome == probecache.Hit {
			o.executed.Add(1)
			o.cacheHits.Add(1)
			o.fl.Emit(flight.ProbeCacheHit, nodeID, key, alive, 0, "")
			return alive, nil
		}
		if outcome == probecache.Suspect {
			// A write touched a footprint table since the dead verdict was
			// proved; re-probe to repair it (an INSERT can only flip
			// dead -> alive, so the alive branch above stays trustworthy).
			suspect = true
			o.suspects.Add(1)
			o.fl.Emit(flight.Suspect, nodeID, key, false, 0, outcome.Cause())
		} else {
			o.fl.Emit(flight.ProbeCacheMiss, nodeID, key, false, 0, outcome.Cause())
		}
	}
	// One timer spans the whole evaluation — rendering, handle resolution or
	// compile, execution — so SQLTime is "time spent servicing probes" on
	// both steps.
	start := clock.Now()
	alive, err := o.evaluate(nodeID, x, key)
	if err != nil {
		return false, err
	}
	o.executed.Add(1)
	dur := clock.Since(start)
	o.sqlNanos.Add(int64(dur))
	o.fl.Emit(flight.SQLExec, nodeID, key, alive, dur, "")
	if o.cache != nil {
		o.cache.PutFP(key, alive, nodeFootprint(o.lat, nodeID, o.keywords), o.view)
		if suspect {
			o.repaired.Add(1)
			o.fl.Emit(flight.Repair, nodeID, key, alive, 0, repairCause(alive))
		}
	}
	return alive, nil
}

// evaluate answers the probe of node nodeID, sub index x, on the oracle's
// step: the rendered SQL through database/sql when db is set, the node's
// prepared handle otherwise.
func (o *oracle) evaluate(nodeID, x int, key string) (bool, error) {
	if o.db != nil {
		return o.query(nodeID)
	}
	h, err := o.handle(nodeID, x, key)
	if err != nil {
		return false, err
	}
	res, err := h.ExecFlight(o.ctx, o.cands, o.fl, nodeID, key)
	if err != nil {
		return false, fmt.Errorf("core: probe node %d: %w", nodeID, err)
	}
	return len(res.Rows) > 0, nil
}

// handle resolves the node's Prepared handle: the run's memo, then the
// cross-request cache, then compile. Concurrent probes of one node may both
// compile; the duplicate handle is equivalent and the last store wins, so
// correctness never depends on winning the race.
func (o *oracle) handle(nodeID, x int, key string) (*engine.Prepared, error) {
	if h := o.prepared[x].Load(); h != nil {
		return h, nil
	}
	h := o.handles.Get(key)
	if h == nil {
		sel, err := o.lat.Select(o.lat.Node(nodeID), o.keywords, true)
		if err != nil {
			return nil, fmt.Errorf("core: instantiate node %d: %w", nodeID, err)
		}
		if h, err = o.eng.Prepare(sel); err != nil {
			return nil, fmt.Errorf("core: prepare node %d: %w", nodeID, err)
		}
		o.compiled.Add(1)
		o.handles.Put(key, h)
	}
	o.prepared[x].Store(h)
	return h, nil
}

// query runs the node's rendered existence SQL through database/sql.
func (o *oracle) query(nodeID int) (bool, error) {
	query, err := o.lat.SQL(o.lat.Node(nodeID), o.keywords, true)
	if err != nil {
		return false, fmt.Errorf("core: render node %d: %w", nodeID, err)
	}
	rows, err := o.db.QueryContext(o.ctx, query)
	if err != nil {
		return false, fmt.Errorf("core: execute %q: %w", query, err)
	}
	alive := rows.Next()
	closeErr := rows.Close()
	if err := rows.Err(); err != nil {
		return false, err
	}
	return alive, closeErr
}

// repairCause labels a Repair event: "flipped" when the write the suspect
// feared really did resurrect the query, "confirmed" when the re-probe proved
// the dead verdict still holds.
func repairCause(alive bool) string {
	if alive {
		return "flipped"
	}
	return "confirmed"
}

// fill copies the run's probe accounting into st.
func (o *oracle) fill(st *Stats) {
	st.SQLExecuted = int(o.executed.Load())
	st.SQLTime = time.Duration(o.sqlNanos.Load())
	st.CacheHits = int(o.cacheHits.Load())
	st.PlanCompiles = int(o.compiled.Load())
	st.Suspects = int(o.suspects.Load())
	st.Repaired = int(o.repaired.Load())
	ch, cm := o.cands.Stats()
	st.CandSetHits, st.CandSetMisses = int(ch), int(cm)
}
