package bench

import (
	"fmt"
	"strings"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/probecache"
	"kwsdbg/internal/vervec"
)

// WritesPhase is one step of the write-churn sweep: an optional INSERT
// followed by a Debug run against the shared probe cache.
type WritesPhase struct {
	Label string
	// Table and SQL describe the write preceding the run; both empty for
	// the baseline phases (cold, warm-up, steady-state).
	Table string
	SQL   string
	// Probes is the SQL that reached the database (cache hits excluded).
	Probes int
	Hits   int
	// Suspects/Repaired count dead verdicts the write downgraded and this
	// run re-proved; StaleEvictions is how many cache entries the write
	// flushed outright (the over-invalidation the version vector removes —
	// zero for every monotone INSERT).
	Suspects       int
	Repaired       int
	StaleEvictions int
}

// WritesReport is the evidence that per-table/term version vectors stop
// cache over-invalidation under writes. The headline numbers are
// DisjointInvalidated (must be 0: a write into a table no cached verdict
// joins suspects nothing) and ProbeSavingsVsCold (a warm repaired run after
// an intersecting write issues at least 2x fewer probes than a cold run of
// the same changed data). Every figure is a count, so the sweep is
// deterministic; write-churn latency is kwsbench's debug-writes workload.
type WritesReport struct {
	Level    int
	Strategy string
	QueryID  string
	Keywords []string
	// Entries is the probe-cache population after warm-up — the verdicts at
	// stake under the write churn.
	Entries int
	// ColdProbes is the probe bill of a cacheless run; the denominator of
	// ProbeSavingsVsCold.
	ColdProbes int
	Phases     []WritesPhase
	// DisjointInvalidated = suspects + stale evictions caused by the
	// disjoint-table write. The pre-fix scalar DataVersion design scored
	// Entries here; the vector scores 0.
	DisjointInvalidated int
	ProbeSavingsVsCold  float64
}

// writeRowSQL builds a literal INSERT for rel: fresh large integers for int
// columns (keys stay collision-free against generated data), text for the
// rest. Padding the text with the given terms makes the write intersect (or
// stay disjoint from) cached term footprints by construction.
func writeRowSQL(rel *catalog.Relation, id int, text string) string {
	vals := make([]string, len(rel.Columns))
	for i, col := range rel.Columns {
		if col.Type == catalog.Text {
			vals[i] = "'" + text + "'"
		} else {
			vals[i] = fmt.Sprintf("%d", id)
		}
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", rel.Name, strings.Join(vals, ", "))
}

// WritesSweep measures cache behaviour under write churn for the workload's
// canonical non-answer query (Q3 is fully dead — every verdict in the cache
// is a dead verdict, the kind a write can flip). Phases: cold baseline,
// warm-up, warm steady state, a write into a table outside every cached
// footprint (must invalidate nothing), and a write into the query's own
// tables and terms (must suspect and repair, never flush). Needs level >= 5:
// below that the lattice prunes Q3 without issuing SQL, so there is nothing
// to cache.
func WritesSweep(env *Env, level int) (*Table, *WritesReport, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, nil, err
	}
	q := dblife.Workload()[2] // Q3: Agrawal, Chaudhuri, Das
	rep := &WritesReport{
		Level:    level,
		Strategy: core.SBH.String(),
		QueryID:  q.ID,
		Keywords: q.Keywords,
	}
	opts := core.Options{Strategy: core.SBH, Workers: 4}

	cache := probecache.New(probecache.Config{})
	sys.SetProbeCache(cache)
	defer sys.SetProbeCache(nil)

	run := func(label, table, sql string, bypass bool) (*WritesPhase, error) {
		if sql != "" {
			if _, err := env.Engine().Exec(sql); err != nil {
				return nil, fmt.Errorf("bench: writes sweep %s: %w", label, err)
			}
		}
		before := cache.Snapshot()
		o := opts
		o.BypassCache = bypass
		out, err := sys.Debug(q.Keywords, o)
		if err != nil {
			return nil, fmt.Errorf("bench: writes sweep %s: %w", label, err)
		}
		after := cache.Snapshot()
		ph := WritesPhase{
			Label:          label,
			Table:          table,
			SQL:            sql,
			Probes:         out.Stats.SQLIssued(),
			Hits:           out.Stats.CacheHits,
			Suspects:       out.Stats.Suspects,
			Repaired:       out.Stats.Repaired,
			StaleEvictions: int(after.EvictionsStale - before.EvictionsStale),
		}
		rep.Phases = append(rep.Phases, ph)
		return &ph, nil
	}

	cold, err := run("cold", "", "", true)
	if err != nil {
		return nil, nil, err
	}
	rep.ColdProbes = cold.Probes
	if _, err := run("warm-up", "", "", false); err != nil {
		return nil, nil, err
	}
	rep.Entries = cache.Snapshot().Entries
	if _, err := run("steady", "", "", false); err != nil {
		return nil, nil, err
	}

	// The disjoint write: the first schema relation no cached footprint
	// mentions. FootprintTables is the cache's own view, so the choice
	// stays correct if the lattice (and thus the footprints) changes shape.
	covered := map[string]bool{}
	for _, name := range cache.FootprintTables() {
		covered[name] = true
	}
	var disjoint *catalog.Relation
	for _, rel := range env.Engine().Database().Schema().Relations() {
		if !covered[vervec.TableKey(rel.Name)] {
			disjoint = rel
			break
		}
	}
	if disjoint == nil {
		return nil, nil, fmt.Errorf("bench: writes sweep: every table is in some cached footprint; no disjoint write possible at level %d", level)
	}
	dj, err := run("disjoint-write", disjoint.Name,
		writeRowSQL(disjoint, 9_000_001, "benchmark churn venue"), false)
	if err != nil {
		return nil, nil, err
	}
	rep.DisjointInvalidated = dj.Suspects + dj.StaleEvictions

	// The touching write: a Person row carrying the query's own first
	// keyword — inside both the table and term footprints of Q3's verdicts.
	person, _ := env.Engine().Database().Schema().Relation(dblife.Person)
	touch, err := run("touching-write", dblife.Person,
		writeRowSQL(person, 9_000_002, q.Keywords[0]+" benchmark churn"), false)
	if err != nil {
		return nil, nil, err
	}
	if touch.Probes > 0 {
		rep.ProbeSavingsVsCold = float64(rep.ColdProbes) / float64(touch.Probes)
	}

	t := &Table{
		ID: "writes",
		Title: fmt.Sprintf("write churn sweep at level %d (%s on %s: %s)",
			level, rep.Strategy, q.ID, strings.Join(q.Keywords, " ")),
		Columns: []string{"phase", "table", "probes", "hits", "suspects", "repaired", "stale_evictions"},
		Notes: fmt.Sprintf("%d cached verdicts; disjoint write invalidated %d; touching write repaired in-place at %.1fx fewer probes than cold",
			rep.Entries, rep.DisjointInvalidated, rep.ProbeSavingsVsCold),
	}
	for _, p := range rep.Phases {
		t.Rows = append(t.Rows, []string{
			p.Label, p.Table,
			itoa(p.Probes), itoa(p.Hits), itoa(p.Suspects), itoa(p.Repaired), itoa(p.StaleEvictions),
		})
	}
	return t, rep, nil
}
