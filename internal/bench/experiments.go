package bench

import (
	"fmt"
	"strings"
	"time"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
)

// msf renders a duration as fractional milliseconds.
func msf(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// Fig9a reports the number of nodes generated per lattice level and the
// duplicates removed (Figure 9(a)). The lattice is generated once at the
// requested depth; Algorithm 1 records per-level statistics as it goes.
func Fig9a(env *Env, level int) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9a",
		Title:   "lattice nodes generated and duplicates removed per level",
		Columns: []string{"level", "generated", "duplicates", "kept", "cumulative"},
		Notes:   "duplicate fraction reflects the paper's observation that different extension orders regenerate the same tree",
	}
	cum := 0
	for _, st := range sys.Lattice().Stats() {
		cum += st.Kept
		t.Rows = append(t.Rows, []string{
			itoa(st.Level), itoa(st.Generated), itoa(st.Duplicates), itoa(st.Kept), itoa(cum),
		})
	}
	return t, nil
}

// Fig9b reports lattice generation time per level (Figure 9(b)): both the
// per-level cost and the cumulative cost of generating a lattice of that
// depth, which is the paper's one-time offline cost.
func Fig9b(env *Env, level int) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9b",
		Title:   "lattice generation time (offline, one-time)",
		Columns: []string{"level", "level_ms", "cumulative_ms"},
	}
	var cum time.Duration
	for _, st := range sys.Lattice().Stats() {
		cum += st.Elapsed
		t.Rows = append(t.Rows, []string{itoa(st.Level), msf(st.Elapsed), msf(cum)})
	}
	return t, nil
}

// Table2 lists the workload (the paper's Table 2).
func Table2() *Table {
	t := &Table{
		ID:      "tab2",
		Title:   "keyword query workload",
		Columns: []string{"id", "keywords"},
	}
	for _, q := range dblife.Workload() {
		t.Rows = append(t.Rows, []string{q.ID, strings.Join(q.Keywords, " ")})
	}
	return t
}

// Phase12 reports the §3.3 measurements per query: keyword-mapping time,
// pruning time, nodes remaining after pruning (and the pruning percentage),
// MTN-finding time, and MTN count.
func Phase12(env *Env, level int) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "phase12",
		Title: fmt.Sprintf("keyword mapping and pruning at level %d", level),
		Columns: []string{"query", "map_ms", "prune_ms", "pruned_nodes",
			"pruned_pct", "mtn_ms", "mtns"},
	}
	for _, q := range dblife.Workload() {
		st, err := sys.Analyze(q.Keywords)
		if err != nil {
			return nil, err
		}
		pct := 100 * (1 - float64(st.PrunedNodes)/float64(st.LatticeNodes))
		t.Rows = append(t.Rows, []string{
			q.ID, msf(st.MapTime), msf(st.PruneTime), itoa(st.PrunedNodes),
			fmt.Sprintf("%.1f%%", pct), msf(st.MTNTime), itoa(st.MTNs),
		})
	}
	return t, nil
}

// Fig10 reports, per query, the nodes remaining after pruning, the MTN
// count, and the MTNs' total and unique descendants (Figure 10).
func Fig10(env *Env, level int) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig10",
		Title: fmt.Sprintf("pruning and MTN statistics at level %d", level),
		Columns: []string{"query", "nodes_after_pruning", "mtns",
			"descendants", "unique_descendants"},
	}
	for _, q := range dblife.Workload() {
		st, err := sys.Analyze(q.Keywords)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			q.ID, itoa(st.PrunedNodes), itoa(st.MTNs),
			itoa(st.DescTotal), itoa(st.DescUnique),
		})
	}
	return t, nil
}

// Fig11 reports the number of SQL queries executed per traversal strategy
// per workload query (Figure 11).
func Fig11(env *Env, level int) (*Table, error) {
	return strategyTable(env, level, "fig11",
		"SQL queries executed per traversal strategy",
		func(out *core.Output) string { return itoa(out.Stats.SQLExecuted) })
}

// Fig12 reports the time taken to execute the SQL queries per strategy
// (Figure 12).
func Fig12(env *Env, level int) (*Table, error) {
	return strategyTable(env, level, "fig12",
		"SQL execution time (ms) per traversal strategy",
		func(out *core.Output) string { return msf(out.Stats.SQLTime) })
}

func strategyTable(env *Env, level int, id, title string, metric func(*core.Output) string) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s at level %d", title, level),
		Columns: []string{"query", "BU", "BUWR", "TD", "TDWR", "SBH"},
	}
	for _, q := range dblife.Workload() {
		row := []string{q.ID}
		for _, strat := range []core.Strategy{core.BU, core.BUWR, core.TD, core.TDWR, core.SBH} {
			out, err := sys.Debug(q.Keywords, core.Options{Strategy: strat})
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", q.ID, strat, err)
			}
			row = append(row, metric(out))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table3 reports MTN and MPAN counts at lattice levels 3, 5, and 7 per
// query (the paper's Table 3). MPANs are counted from a single SBH run.
func Table3(env *Env, levels []int) (*Table, error) {
	t := &Table{
		ID:      "tab3",
		Title:   "distribution of MTNs and MPANs across lattice levels",
		Columns: []string{"query"},
	}
	for _, l := range levels {
		t.Columns = append(t.Columns, fmt.Sprintf("MTNs@L%d", l), fmt.Sprintf("MPANs@L%d", l))
	}
	rows := make(map[string][]string)
	for _, q := range dblife.Workload() {
		rows[q.ID] = []string{q.ID}
	}
	for _, l := range levels {
		sys, err := env.System(l)
		if err != nil {
			return nil, err
		}
		for _, q := range dblife.Workload() {
			out, err := sys.Debug(q.Keywords, core.Options{Strategy: core.SBH})
			if err != nil {
				return nil, fmt.Errorf("%s@L%d: %w", q.ID, l, err)
			}
			mpans := 0
			for _, na := range out.NonAnswers {
				mpans += len(na.MPANs)
			}
			rows[q.ID] = append(rows[q.ID], itoa(out.Stats.MTNs), itoa(mpans))
		}
	}
	for _, q := range dblife.Workload() {
		t.Rows = append(t.Rows, rows[q.ID])
	}
	return t, nil
}

// Table4 reports the number of SQL queries per strategy for one query at
// multiple lattice levels (the paper's Table 4, which uses Q3).
func Table4(env *Env, queryID string, levels []int) (*Table, error) {
	var target *dblife.Query
	for _, q := range dblife.Workload() {
		if q.ID == queryID {
			q := q
			target = &q
		}
	}
	if target == nil {
		return nil, fmt.Errorf("bench: unknown workload query %q", queryID)
	}
	t := &Table{
		ID:      "tab4",
		Title:   fmt.Sprintf("SQL queries executed for %s by lattice level", queryID),
		Columns: []string{"level", "BU", "BUWR", "TD", "TDWR", "SBH"},
	}
	for _, l := range levels {
		sys, err := env.System(l)
		if err != nil {
			return nil, err
		}
		row := []string{itoa(l)}
		for _, strat := range []core.Strategy{core.BU, core.BUWR, core.TD, core.TDWR, core.SBH} {
			out, err := sys.Debug(target.Keywords, core.Options{Strategy: strat})
			if err != nil {
				return nil, err
			}
			row = append(row, itoa(out.Stats.SQLExecuted))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig13 reports the reuse percentage 100*(1 - unique/total) over MTN
// descendants per query and level (Figure 13).
func Fig13(env *Env, levels []int) (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "percentage of reuse among MTN descendants",
		Columns: []string{"query"},
	}
	for _, l := range levels {
		t.Columns = append(t.Columns, fmt.Sprintf("L%d", l))
	}
	rows := make(map[string][]string)
	for _, q := range dblife.Workload() {
		rows[q.ID] = []string{q.ID}
	}
	for _, l := range levels {
		sys, err := env.System(l)
		if err != nil {
			return nil, err
		}
		for _, q := range dblife.Workload() {
			st, err := sys.Analyze(q.Keywords)
			if err != nil {
				return nil, err
			}
			rows[q.ID] = append(rows[q.ID], fmt.Sprintf("%.1f%%", st.ReusePercent()))
		}
	}
	for _, q := range dblife.Workload() {
		t.Rows = append(t.Rows, rows[q.ID])
	}
	return t, nil
}

// Alternatives reports the response-time comparison of §3.8: our approach
// (SBH over the lattice) versus the Return Nothing and Return Everything
// baselines, in terms of total SQL execution time (Figures 14 and 15).
func Alternatives(env *Env, level int) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	id := "fig14"
	if level >= 7 {
		id = "fig15"
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("response time (ms) vs alternatives at level %d", level),
		Columns: []string{"query", "ours_SBH", "return_nothing", "return_everything", "ours_sql", "rn_sql", "re_sql"},
	}
	for _, q := range dblife.Workload() {
		ours, err := sys.Debug(q.Keywords, core.Options{Strategy: core.SBH})
		if err != nil {
			return nil, err
		}
		rn, err := sys.ReturnNothing(q.Keywords)
		if err != nil {
			return nil, err
		}
		re, err := sys.Debug(q.Keywords, core.Options{Strategy: core.RE})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			q.ID, msf(ours.Stats.SQLTime), msf(rn.SQLTime), msf(re.Stats.SQLTime),
			itoa(ours.Stats.SQLExecuted), itoa(rn.SQLExecuted), itoa(re.Stats.SQLExecuted),
		})
	}
	return t, nil
}

// AblationPa sweeps the score-based heuristic's aliveness prior, supporting
// the paper's claim that pa = 0.5 "works surprisingly well" (§2.5.3).
func AblationPa(env *Env, level int, pas []float64) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-pa",
		Title:   fmt.Sprintf("SBH SQL queries by aliveness prior pa at level %d", level),
		Columns: []string{"query"},
	}
	for _, pa := range pas {
		t.Columns = append(t.Columns, fmt.Sprintf("pa=%.2f", pa))
	}
	for _, q := range dblife.Workload() {
		row := []string{q.ID}
		for _, pa := range pas {
			out, err := sys.Debug(q.Keywords, core.Options{Strategy: core.SBH, Pa: pa})
			if err != nil {
				return nil, err
			}
			row = append(row, itoa(out.Stats.SQLExecuted))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationCopies contrasts the default lattice (keyword copies only on
// text-bearing relations) with the literal Algorithm 1 (copies everywhere),
// quantifying why the pruning matters on a schema whose relationship tables
// carry no text.
func AblationCopies(env *Env, level int) (*Table, error) {
	t := &Table{
		ID:      "ablation-copies",
		Title:   fmt.Sprintf("lattice size: text-only copies vs literal Algorithm 1, up to level %d", level),
		Columns: []string{"level", "default_nodes", "literal_nodes"},
		Notes:   "literal Algorithm 1 keeps keyword copies of the nine text-less relationship tables; every such node is pruned by every query",
	}
	schema := env.Engine().Database().Schema()
	def, err := lattice.GenerateOpts(schema, lattice.Options{MaxJoins: level - 1, KeywordSlots: 3})
	if err != nil {
		return nil, err
	}
	lit, err := lattice.GenerateOpts(schema, lattice.Options{
		MaxJoins: level - 1, KeywordSlots: 3, CopiesForTextlessRelations: true,
	})
	if err != nil {
		return nil, err
	}
	for i := range def.Stats() {
		t.Rows = append(t.Rows, []string{
			itoa(def.Stats()[i].Level),
			itoa(def.Stats()[i].Kept),
			itoa(lit.Stats()[i].Kept),
		})
	}
	return t, nil
}

// RNCoverage quantifies the incompleteness argument of §3.8: a Return
// Nothing developer can only ever see candidate networks of keyword
// sub-queries, so MPANs with free or redundantly-covered leaves are
// unreachable no matter how many sub-queries they submit.
func RNCoverage(env *Env, level int) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "rn-coverage",
		Title:   fmt.Sprintf("MPANs reachable by the Return Nothing workflow at level %d", level),
		Columns: []string{"query", "mpans", "rn_visible", "invisible_pct"},
		Notes:   "invisible MPANs contain a free tuple set or redundant keyword coverage at a leaf; no keyword sub-query has them as a candidate network",
	}
	for _, q := range dblife.Workload() {
		out, err := sys.Debug(q.Keywords, core.Options{Strategy: core.SBH})
		if err != nil {
			return nil, err
		}
		total, visible := 0, 0
		for _, na := range out.NonAnswers {
			for _, p := range na.MPANs {
				total++
				if sys.Lattice().Node(p.NodeID).IsCandidateNetwork() {
					visible++
				}
			}
		}
		pct := "n/a"
		if total > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*float64(total-visible)/float64(total))
		}
		t.Rows = append(t.Rows, []string{q.ID, itoa(total), itoa(visible), pct})
	}
	return t, nil
}

// OnlineCN tests the paper's §2.2 claim (iii): the offline lattice bypasses
// the costly candidate-network generation phase. For each query it compares
// the lattice's online work (keyword mapping + pruning + MTN lookup) against
// generating the candidate networks from scratch at query time, the
// classical DISCOVER/DBXplorer approach. Both paths provably produce the
// same candidate networks (tested in internal/core).
func OnlineCN(env *Env, level int) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "online-cn",
		Title:   fmt.Sprintf("lattice lookup vs online CN generation at level %d", level),
		Columns: []string{"query", "lattice_ms", "online_ms", "online_trees_generated", "mtns"},
	}
	for _, q := range dblife.Workload() {
		st, err := sys.Analyze(q.Keywords)
		if err != nil {
			return nil, err
		}
		online, err := sys.OnlineCandidateNetworks(q.Keywords)
		if err != nil {
			return nil, err
		}
		latticeTime := st.MapTime + st.PruneTime + st.MTNTime
		t.Rows = append(t.Rows, []string{
			q.ID, msf(latticeTime), msf(online.Elapsed),
			itoa(online.Generated), itoa(st.MTNs),
		})
	}
	return t, nil
}

// AblationSkew contrasts uniform relationship endpoints (the default the
// other experiments use) against Zipf-distributed ones (a real crawl's
// shape): same workload, same lattice level, SBH probes and MPAN counts
// side by side.
func AblationSkew(env *Env, level int, skew float64) (*Table, error) {
	sys, err := env.System(level)
	if err != nil {
		return nil, err
	}
	skewedEng, err := dblife.Generate(dblife.Config{Seed: env.Cfg.Seed, Scale: env.Cfg.Scale, Skew: skew})
	if err != nil {
		return nil, err
	}
	// The lattice is schema-bound, and each generated dataset carries its
	// own schema instance, so Phase 0 reruns for the skewed system (cheap
	// at the levels this ablation uses).
	skewedSys, err := core.Build(skewedEng, lattice.Options{MaxJoins: level - 1, KeywordSlots: 3})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-skew",
		Title:   fmt.Sprintf("uniform vs Zipf(%.1f) endpoint distribution at level %d", skew, level),
		Columns: []string{"query", "sql_uniform", "sql_zipf", "mpans_uniform", "mpans_zipf"},
		Notes:   "same schema, scale, and lattice; only the relationship endpoint distribution differs",
	}
	mpans := func(out *core.Output) int {
		n := 0
		for _, na := range out.NonAnswers {
			n += len(na.MPANs)
		}
		return n
	}
	for _, q := range dblife.Workload() {
		u, err := sys.Debug(q.Keywords, core.Options{Strategy: core.SBH})
		if err != nil {
			return nil, err
		}
		z, err := skewedSys.Debug(q.Keywords, core.Options{Strategy: core.SBH})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			q.ID, itoa(u.Stats.SQLExecuted), itoa(z.Stats.SQLExecuted),
			itoa(mpans(u)), itoa(mpans(z)),
		})
	}
	return t, nil
}
