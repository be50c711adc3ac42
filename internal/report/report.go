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
	"math"
	"strconv"
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

// Text writes the human-readable report. It stops at the first failed write
// and returns that error.
func Text(w io.Writer, out *core.Output, opts Options) error {
	tw := &textWriter{w: w}
	if len(out.NonKeywords) > 0 {
		tw.printf("keywords not found anywhere in the data: %s\n", strings.Join(out.NonKeywords, ", "))
		return tw.err
	}
	fromCache := ""
	if out.Stats.CacheHits > 0 {
		fromCache = fmt.Sprintf(", %d from the verdict cache", out.Stats.CacheHits)
	}
	tw.printf("%d answer queries, %d non-answer queries (%d SQL probes%s, %v)\n",
		len(out.Answers), len(out.NonAnswers), out.Stats.SQLExecuted, fromCache, out.Stats.SQLTime)
	if out.Incomplete {
		tw.printf("INCOMPLETE: %s exhausted; everything below is guaranteed, %d candidate networks left unclassified\n",
			out.IncompleteReason, len(out.Unclassified))
	}
	for _, a := range out.Answers {
		tw.printf("ALIVE %s\n", a.Tree)
		if opts.ShowSQL {
			tw.printf("      %s\n", out.QuerySQL(a))
		}
		if opts.Preview > 0 && opts.Sys != nil {
			tw.preview(opts.Sys, out.Keywords, a.NodeID, opts.Preview)
		}
	}
	for _, na := range out.NonAnswers {
		tw.printf("DEAD  %s\n", na.Query.Tree)
		if opts.ShowSQL {
			tw.printf("      %s\n", out.QuerySQL(na.Query))
		}
		for i, p := range na.MPANs {
			if opts.MaxMPANs > 0 && i >= opts.MaxMPANs {
				tw.printf("      ... and %d more maximal alive sub-queries\n", len(na.MPANs)-i)
				break
			}
			tw.printf("      alive up to: %s\n", p.Tree)
			if opts.ShowSQL {
				tw.printf("        %s\n", out.QuerySQL(p))
			}
		}
		if na.Incomplete {
			tw.printf("      (explanation incomplete: budget exhausted, more maximal alive sub-queries may exist)\n")
		}
	}
	for _, u := range out.Unclassified {
		tw.printf("UNKNOWN %s (not classified before %s exhausted)\n", u.Tree, out.IncompleteReason)
	}
	return tw.err
}

// textWriter sends the report's lines to w and keeps the first write error;
// after it, every further line is dropped.
type textWriter struct {
	w   io.Writer
	err error
}

func (tw *textWriter) printf(format string, args ...any) {
	if tw.err == nil {
		_, tw.err = fmt.Fprintf(tw.w, format, args...)
	}
}

func (tw *textWriter) preview(sys *core.System, keywords []string, nodeID, limit int) {
	if tw.err != nil {
		return
	}
	cols, rows, err := sys.Results(nodeID, keywords, limit)
	if err != nil {
		tw.printf("      (preview failed: %v)\n", err)
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
		tw.printf("      %s\n", line)
	}
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

// JSON writes the machine-readable report.
func JSON(w io.Writer, out *core.Output, showSQL bool) error {
	return JSONOpts(w, out, JSONOptions{ShowSQL: showSQL})
}

// JSONOpts is JSON with the full option set. It encodes the whole report
// before writing, so w sees one Write, or none when encoding fails.
func JSONOpts(w io.Writer, out *core.Output, opts JSONOptions) error {
	b, err := AppendJSON(nil, out, opts)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendJSON appends the JSON report to dst and returns the extended slice;
// on error it returns dst unchanged.
//
// The bytes are exactly what encoding/json's Encoder writes with a two-space
// indent for the report's schema, trailing newline included: field order,
// omitted empty fields, [] for empty and null for nil lists, HTML-safe
// string escaping and the float format all follow it. Clients and
// kwsbench's checker compare these bytes, so the layout is part of the
// interface; TestJSONMatchesReference and FuzzJSONOpts hold the writer to
// an encoding/json reference.
//
// Schema: keywords, non_keywords (when any), answers, non_answers (each a
// query, its mpans, and budget_exhausted when cut short), incomplete and
// incomplete_reason (when set), unclassified (when any), stats, and trace
// (when opts.Trace is set). A query is node, level, tree, and sql under
// ShowSQL.
func AppendJSON(dst []byte, out *core.Output, opts JSONOptions) ([]byte, error) {
	w := jsonWriter{b: dst, out: out, sql: opts.ShowSQL}
	if n := sizeHint(out); cap(dst)-len(dst) < n {
		// One allocation, also under -race, where slices.Grow makes two.
		w.b = append(make([]byte, 0, len(dst)+n), dst...)
	}
	w.open('{')
	w.key("keywords")
	w.stringList(out.Keywords)
	if len(out.NonKeywords) > 0 {
		w.key("non_keywords")
		w.stringList(out.NonKeywords)
	}
	w.key("answers")
	w.queries(out.Answers)
	w.key("non_answers")
	w.open('[')
	for i := range out.NonAnswers {
		na := &out.NonAnswers[i]
		w.next()
		w.open('{')
		w.key("query")
		w.query(na.Query)
		w.key("mpans")
		w.queries(na.MPANs)
		if na.Incomplete {
			w.key("budget_exhausted")
			w.b = append(w.b, "true"...)
		}
		w.close('}')
	}
	w.close(']')
	// A run that ran out of deadline or probe budget is incomplete:
	// incomplete_reason is "probe_budget" or "deadline", and unclassified
	// lists the candidate networks never settled. Everything in answers and
	// non_answers is still a true classification.
	if out.Incomplete {
		w.key("incomplete")
		w.b = append(w.b, "true"...)
	}
	if out.IncompleteReason != "" {
		w.strField("incomplete_reason", out.IncompleteReason)
	}
	if len(out.Unclassified) > 0 {
		w.key("unclassified")
		w.queries(out.Unclassified)
	}
	w.key("stats")
	w.stats(&out.Stats)
	if opts.Trace != nil {
		w.key("trace")
		w.trace(opts.Trace)
	}
	w.close('}')
	w.b = append(w.b, '\n')
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// The report's size, estimated from above without SQL. A query entry takes
// its tree label plus at most queryEntryBytes of indentation, field names
// and numbers, a non-answer nonAnswerBytes more for its own fields, and a
// keyword its length plus listItemBytes; everything else, the trace
// included, fits in fixedBytes. With ShowSQL the slice grows as the
// statements are rendered.
const (
	queryEntryBytes = 104
	nonAnswerBytes  = 64
	listItemBytes   = 16
	fixedBytes      = 1280
)

func sizeHint(out *core.Output) int {
	n := fixedBytes + len(out.IncompleteReason)
	for _, kw := range out.Keywords {
		n += listItemBytes + len(kw)
	}
	for _, kw := range out.NonKeywords {
		n += 2 * (listItemBytes + len(kw)) // listed again in the trace
	}
	entries := func(qs []core.QueryInfo) {
		for _, q := range qs {
			n += queryEntryBytes + len(q.Tree)
		}
	}
	entries(out.Answers)
	for _, na := range out.NonAnswers {
		n += nonAnswerBytes + queryEntryBytes + len(na.Query.Tree)
		entries(na.MPANs)
	}
	entries(out.Unclassified)
	return n
}

// jsonWriter appends the indented report. Its layout state is what
// encoding/json's indenter tracks: the nesting depth, and whether the
// innermost object or array is still empty. An empty one closes on the line
// it opened on ("[]"); every element starts on a new line, indented two
// spaces per level.
type jsonWriter struct {
	b     []byte
	depth int
	empty bool
	out   *core.Output
	sql   bool
	err   error
}

// indent covers the schema's deepest nesting: six levels, inside the trace.
const indent = "            "

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

func (w *jsonWriter) newline() {
	w.b = append(w.b, '\n')
	w.b = append(w.b, indent[:2*w.depth]...)
}

// next starts an element of the innermost object or array.
func (w *jsonWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.newline()
	w.empty = false
}

// key starts an object field; name needs no escaping.
func (w *jsonWriter) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
}

// str writes s as a JSON string. A string of printable ASCII with nothing
// to escape is copied as it is; any other goes through json.Marshal, so
// control bytes, HTML characters, U+2028, U+2029 and invalid UTF-8 come out
// exactly as encoding/json writes them.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			w.b = append(w.b, b...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

func (w *jsonWriter) strField(name, s string) {
	w.key(name)
	w.str(s)
}

func (w *jsonWriter) intField(name string, n int) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, int64(n), 10)
}

// float writes f as encoding/json does: the shortest decimal that reads
// back as f, in exponent form only below 1e-6 or from 1e21 up, and with the
// exponent not padded to two digits. NaN and ±Inf have no JSON form;
// json.Marshal supplies the error.
func (w *jsonWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if _, err := json.Marshal(f); w.err == nil {
			w.err = err
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// millisField writes a duration as milliseconds, truncated to the
// microsecond.
func (w *jsonWriter) millisField(name string, d time.Duration) {
	w.key(name)
	w.float(float64(d.Microseconds()) / 1000)
}

// stringList writes a string list; nil is null.
func (w *jsonWriter) stringList(ss []string) {
	if ss == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for _, s := range ss {
		w.next()
		w.str(s)
	}
	w.close(']')
}

func (w *jsonWriter) queries(qs []core.QueryInfo) {
	w.open('[')
	for _, q := range qs {
		w.next()
		w.query(q)
	}
	w.close(']')
}

// query writes one reported query.
//
//kws:hotpath
func (w *jsonWriter) query(q core.QueryInfo) {
	w.open('{')
	w.intField("node", q.NodeID)
	w.intField("level", q.Level)
	w.strField("tree", q.Tree)
	if w.sql {
		if sql := w.out.QuerySQL(q); sql != "" {
			w.strField("sql", sql)
		}
	}
	w.close('}')
}

// stats writes the run's measurements. cache_hits is how many of
// sql_executed the cross-request probe cache answered; sql_issued is the
// remainder, the probes that reached the database.
func (w *jsonWriter) stats(st *core.Stats) {
	w.open('{')
	w.strField("strategy", st.Strategy.String())
	w.intField("lattice_nodes", st.LatticeNodes)
	w.intField("pruned_nodes", st.PrunedNodes)
	w.intField("mtns", st.MTNs)
	w.intField("sql_executed", st.SQLExecuted)
	w.intField("inferred", st.Inferred)
	w.intField("cache_hits", st.CacheHits)
	w.intField("sql_issued", st.SQLIssued())
	w.millisField("sql_ms", st.SQLTime)
	w.close('}')
}

// trace writes the run's phase tree from its Stats. Each node has a name, a
// wall time in milliseconds, the Stats values the phase accounts for
// (attrs, keys in sorted order) and its sub-phases (children). The root
// "debug" is the call as the caller timed it; "phase12" spans keyword
// binding, pruning and MTN discovery; "phase3" appears only when Phase 3
// ran, and its probe accounting is the Stats' own, so phase3.probes equals
// stats.sql_executed by construction.
func (w *jsonWriter) trace(tr *Trace) {
	st := &w.out.Stats
	w.open('{')
	w.span("debug", tr.Elapsed)
	w.key("children")
	w.open('[')

	w.next()
	w.open('{')
	w.span("phase12", st.MapTime+st.PruneTime+st.MTNTime)
	w.key("attrs")
	w.open('{')
	w.intField("lattice_nodes", st.LatticeNodes)
	w.millisField("map_ms", st.MapTime)
	w.millisField("mtn_ms", st.MTNTime)
	w.intField("mtns", st.MTNs)
	if len(w.out.NonKeywords) > 0 {
		w.key("non_keywords")
		w.stringList(w.out.NonKeywords)
	}
	w.millisField("prune_ms", st.PruneTime)
	w.intField("pruned_nodes", st.PrunedNodes)
	w.close('}')
	w.close('}')

	if len(w.out.NonKeywords) == 0 && st.MTNs > 0 {
		w.next()
		w.open('{')
		w.span("phase3", st.TraverseTime)
		w.key("attrs")
		w.open('{')
		w.intField("cache_hits", st.CacheHits)
		w.intField("inferred", st.Inferred)
		w.intField("probes", st.SQLExecuted)
		w.key("reuse_percent")
		w.float(st.ReusePercent())
		w.millisField("sql_ms", st.SQLTime)
		w.strField("strategy", st.Strategy.String())
		w.intField("sub_nodes", st.SubNodes)
		w.intField("workers", tr.Workers)
		w.close('}')
		w.close('}')
	}
	w.close(']')
	w.close('}')
}

// span writes a phase's name and wall time.
func (w *jsonWriter) span(name string, d time.Duration) {
	w.strField("name", name)
	w.millisField("duration_ms", d)
}
