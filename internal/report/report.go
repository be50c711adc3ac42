// Package report renders debugger outputs for people and for machines: an
// indented text form for terminals (what cmd/kwsdbg prints) and a stable
// JSON form for tooling that post-processes non-answer explanations (the
// paper's §1 suggests filters and priority hierarchies are built downstream
// of the debugger — JSON is the interchange point for that).
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"kwsdbg/internal/core"
)

// Options controls text rendering.
type Options struct {
	// ShowSQL includes each reported query's SQL text (core.Output.QuerySQL,
	// which renders it only now).
	ShowSQL bool
	// MaxMPANs caps the explanations printed per non-answer (0 = all).
	MaxMPANs int
	// Preview fetches up to this many result tuples per alive query; it
	// requires Sys to be set.
	Preview int
	// Sys supplies result fetching for Preview.
	Sys *core.System
}

// Text writes the human-readable report.
func Text(w io.Writer, out *core.Output, opts Options) error {
	if len(out.NonKeywords) > 0 {
		_, err := fmt.Fprintf(w, "keywords not found anywhere in the data: %s\n",
			strings.Join(out.NonKeywords, ", "))
		return err
	}
	if _, err := fmt.Fprintf(w, "%d answer queries, %d non-answer queries (%d SQL probes, %v)\n",
		len(out.Answers), len(out.NonAnswers), out.Stats.SQLExecuted, out.Stats.SQLTime); err != nil {
		return err
	}
	if out.Incomplete {
		if _, err := fmt.Fprintf(w, "INCOMPLETE: %s exhausted; everything below is guaranteed, %d candidate networks left unclassified\n",
			out.IncompleteReason, len(out.Unclassified)); err != nil {
			return err
		}
	}
	for _, a := range out.Answers {
		if _, err := fmt.Fprintf(w, "ALIVE %s\n", a.Tree); err != nil {
			return err
		}
		if opts.ShowSQL {
			fmt.Fprintf(w, "      %s\n", out.QuerySQL(a))
		}
		if opts.Preview > 0 && opts.Sys != nil {
			preview(w, opts.Sys, out.Keywords, a.NodeID, opts.Preview)
		}
	}
	for _, na := range out.NonAnswers {
		if _, err := fmt.Fprintf(w, "DEAD  %s\n", na.Query.Tree); err != nil {
			return err
		}
		if opts.ShowSQL {
			fmt.Fprintf(w, "      %s\n", out.QuerySQL(na.Query))
		}
		shown := 0
		for _, p := range na.MPANs {
			if opts.MaxMPANs > 0 && shown >= opts.MaxMPANs {
				fmt.Fprintf(w, "      ... and %d more maximal alive sub-queries\n", len(na.MPANs)-shown)
				break
			}
			fmt.Fprintf(w, "      alive up to: %s\n", p.Tree)
			if opts.ShowSQL {
				fmt.Fprintf(w, "        %s\n", out.QuerySQL(p))
			}
			shown++
		}
		if na.Incomplete {
			fmt.Fprintf(w, "      (explanation incomplete: budget exhausted, more maximal alive sub-queries may exist)\n")
		}
	}
	for _, u := range out.Unclassified {
		if _, err := fmt.Fprintf(w, "UNKNOWN %s (not classified before %s exhausted)\n",
			u.Tree, out.IncompleteReason); err != nil {
			return err
		}
	}
	return nil
}

func preview(w io.Writer, sys *core.System, keywords []string, nodeID, limit int) {
	cols, rows, err := sys.Results(nodeID, keywords, limit)
	if err != nil {
		fmt.Fprintf(w, "      (preview failed: %v)\n", err)
		return
	}
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprintf("%s=%s", cols[i], v.String())
		}
		line := strings.Join(parts, " ")
		if len(line) > 160 {
			line = line[:157] + "..."
		}
		fmt.Fprintf(w, "      %s\n", line)
	}
}

// jsonOutput is the stable JSON schema.
type jsonOutput struct {
	Keywords    []string    `json:"keywords"`
	NonKeywords []string    `json:"non_keywords,omitempty"`
	Answers     []jsonQuery `json:"answers"`
	NonAnswers  []jsonDead  `json:"non_answers"`
	// Incomplete marks a partial result: the run's deadline or probe budget
	// ran out. incomplete_reason is "probe_budget" or "deadline", and
	// unclassified lists the candidate networks never settled. Everything in
	// answers/non_answers is still a true classification.
	Incomplete       bool        `json:"incomplete,omitempty"`
	IncompleteReason string      `json:"incomplete_reason,omitempty"`
	Unclassified     []jsonQuery `json:"unclassified,omitempty"`
	Stats            jsonStats   `json:"stats"`
	// Trace is the run's phase tree, present when the caller traced the run
	// (the server's ?trace=1).
	Trace *traceSpan `json:"trace,omitempty"`
}

type jsonQuery struct {
	Node  int    `json:"node"`
	Level int    `json:"level"`
	Tree  string `json:"tree"`
	SQL   string `json:"sql,omitempty"`
}

type jsonDead struct {
	Query jsonQuery   `json:"query"`
	MPANs []jsonQuery `json:"mpans"`
	// BudgetExhausted marks an explanation the governor cut short: the MPANs
	// listed are guaranteed, but more may exist.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

type jsonStats struct {
	Strategy     string `json:"strategy"`
	LatticeNodes int    `json:"lattice_nodes"`
	PrunedNodes  int    `json:"pruned_nodes"`
	MTNs         int    `json:"mtns"`
	SQLExecuted  int    `json:"sql_executed"`
	Inferred     int    `json:"inferred"`
	// CacheHits is how many of sql_executed were answered by the
	// cross-request probe cache; sql_issued is the remainder that actually
	// reached the database.
	CacheHits int     `json:"cache_hits"`
	SQLIssued int     `json:"sql_issued"`
	SQLMillis float64 `json:"sql_ms"`
}

// JSONOptions controls the machine-readable rendering.
type JSONOptions struct {
	// ShowSQL includes each reported query's SQL text (core.Output.QuerySQL,
	// which renders it only now).
	ShowSQL bool
	// Trace, when non-nil, embeds the run's phase tree under "trace".
	Trace *Trace
}

// Trace holds what a run's phase tree needs beyond its core.Stats: the wall
// time the caller measured around the Debug call and the clamped Phase 3
// worker count.
type Trace struct {
	Elapsed time.Duration
	Workers int
}

// traceSpan is one node of the phase tree: a name, a wall time in
// milliseconds, the Stats values the phase accounts for, and sub-phases.
type traceSpan struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []traceSpan    `json:"children,omitempty"`
}

// traceTree renders the phase tree from the run's Stats. The root "debug" is
// the call as the caller timed it; "phase12" spans keyword binding, pruning
// and MTN discovery; "phase3" appears only when Phase 3 ran, and its probe
// accounting is the Stats' own, so phase3.probes equals stats.sql_executed
// by construction.
func traceTree(out *core.Output, tr *Trace) *traceSpan {
	st := out.Stats
	p12 := traceSpan{Name: "phase12", DurationMS: millis(st.MapTime + st.PruneTime + st.MTNTime), Attrs: map[string]any{
		"lattice_nodes": st.LatticeNodes,
		"pruned_nodes":  st.PrunedNodes,
		"mtns":          st.MTNs,
		"map_ms":        millis(st.MapTime),
		"prune_ms":      millis(st.PruneTime),
		"mtn_ms":        millis(st.MTNTime),
	}}
	if len(out.NonKeywords) > 0 {
		p12.Attrs["non_keywords"] = out.NonKeywords
	}
	root := &traceSpan{Name: "debug", DurationMS: millis(tr.Elapsed), Children: []traceSpan{p12}}
	if len(out.NonKeywords) == 0 && st.MTNs > 0 {
		root.Children = append(root.Children, traceSpan{Name: "phase3", DurationMS: millis(st.TraverseTime), Attrs: map[string]any{
			"strategy":      st.Strategy.String(),
			"workers":       tr.Workers,
			"probes":        st.SQLExecuted,
			"cache_hits":    st.CacheHits,
			"inferred":      st.Inferred,
			"sql_ms":        millis(st.SQLTime),
			"sub_nodes":     st.SubNodes,
			"reuse_percent": st.ReusePercent(),
		}})
	}
	return root
}

// millis renders a duration as milliseconds, truncated to the microsecond.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// JSON writes the machine-readable report.
func JSON(w io.Writer, out *core.Output, showSQL bool) error {
	return JSONOpts(w, out, JSONOptions{ShowSQL: showSQL})
}

// JSONOpts is JSON with the full option set.
func JSONOpts(w io.Writer, out *core.Output, opts JSONOptions) error {
	showSQL := opts.ShowSQL
	conv := func(q core.QueryInfo) jsonQuery {
		jq := jsonQuery{Node: q.NodeID, Level: q.Level, Tree: q.Tree}
		if showSQL {
			jq.SQL = out.QuerySQL(q)
		}
		return jq
	}
	jo := jsonOutput{
		Keywords:         out.Keywords,
		NonKeywords:      out.NonKeywords,
		Answers:          []jsonQuery{},
		NonAnswers:       []jsonDead{},
		Incomplete:       out.Incomplete,
		IncompleteReason: out.IncompleteReason,
		Stats: jsonStats{
			Strategy:     out.Stats.Strategy.String(),
			LatticeNodes: out.Stats.LatticeNodes,
			PrunedNodes:  out.Stats.PrunedNodes,
			MTNs:         out.Stats.MTNs,
			SQLExecuted:  out.Stats.SQLExecuted,
			Inferred:     out.Stats.Inferred,
			CacheHits:    out.Stats.CacheHits,
			SQLIssued:    out.Stats.SQLIssued(),
			SQLMillis:    millis(out.Stats.SQLTime),
		},
	}
	for _, a := range out.Answers {
		jo.Answers = append(jo.Answers, conv(a))
	}
	for _, na := range out.NonAnswers {
		jd := jsonDead{Query: conv(na.Query), MPANs: []jsonQuery{}, BudgetExhausted: na.Incomplete}
		for _, p := range na.MPANs {
			jd.MPANs = append(jd.MPANs, conv(p))
		}
		jo.NonAnswers = append(jo.NonAnswers, jd)
	}
	for _, u := range out.Unclassified {
		jo.Unclassified = append(jo.Unclassified, conv(u))
	}
	if opts.Trace != nil {
		jo.Trace = traceTree(out, opts.Trace)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jo)
}
