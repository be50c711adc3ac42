package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
)

// The reference encoder: the report's schema as tagged structs, marshalled
// by encoding/json and indented by its Encoder. AppendJSON must write the
// same bytes.

type jsonOutput struct {
	Keywords         []string    `json:"keywords"`
	NonKeywords      []string    `json:"non_keywords,omitempty"`
	Answers          []jsonQuery `json:"answers"`
	NonAnswers       []jsonDead  `json:"non_answers"`
	Incomplete       bool        `json:"incomplete,omitempty"`
	IncompleteReason string      `json:"incomplete_reason,omitempty"`
	Unclassified     []jsonQuery `json:"unclassified,omitempty"`
	Stats            jsonStats   `json:"stats"`
	Trace            *traceSpan  `json:"trace,omitempty"`
}

type jsonQuery struct {
	Node  int    `json:"node"`
	Level int    `json:"level"`
	Tree  string `json:"tree"`
	SQL   string `json:"sql,omitempty"`
}

type jsonDead struct {
	Query           jsonQuery   `json:"query"`
	MPANs           []jsonQuery `json:"mpans"`
	BudgetExhausted bool        `json:"budget_exhausted,omitempty"`
}

type jsonStats struct {
	Strategy     string  `json:"strategy"`
	LatticeNodes int     `json:"lattice_nodes"`
	PrunedNodes  int     `json:"pruned_nodes"`
	MTNs         int     `json:"mtns"`
	SQLExecuted  int     `json:"sql_executed"`
	Inferred     int     `json:"inferred"`
	CacheHits    int     `json:"cache_hits"`
	SQLIssued    int     `json:"sql_issued"`
	SQLMillis    float64 `json:"sql_ms"`
}

type traceSpan struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []traceSpan    `json:"children,omitempty"`
}

func refMillis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func refTraceTree(out *core.Output, tr *Trace) *traceSpan {
	st := out.Stats
	p12 := traceSpan{Name: "phase12", DurationMS: refMillis(st.MapTime + st.PruneTime + st.MTNTime), Attrs: map[string]any{
		"lattice_nodes": st.LatticeNodes,
		"pruned_nodes":  st.PrunedNodes,
		"mtns":          st.MTNs,
		"map_ms":        refMillis(st.MapTime),
		"prune_ms":      refMillis(st.PruneTime),
		"mtn_ms":        refMillis(st.MTNTime),
	}}
	if len(out.NonKeywords) > 0 {
		p12.Attrs["non_keywords"] = out.NonKeywords
	}
	root := &traceSpan{Name: "debug", DurationMS: refMillis(tr.Elapsed), Children: []traceSpan{p12}}
	if len(out.NonKeywords) == 0 && st.MTNs > 0 {
		root.Children = append(root.Children, traceSpan{Name: "phase3", DurationMS: refMillis(st.TraverseTime), Attrs: map[string]any{
			"strategy":      st.Strategy.String(),
			"workers":       tr.Workers,
			"probes":        st.SQLExecuted,
			"cache_hits":    st.CacheHits,
			"inferred":      st.Inferred,
			"sql_ms":        refMillis(st.SQLTime),
			"sub_nodes":     st.SubNodes,
			"reuse_percent": st.ReusePercent(),
		}})
	}
	return root
}

func referenceJSON(out *core.Output, opts JSONOptions) ([]byte, error) {
	conv := func(q core.QueryInfo) jsonQuery {
		jq := jsonQuery{Node: q.NodeID, Level: q.Level, Tree: q.Tree}
		if opts.ShowSQL {
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
			SQLMillis:    refMillis(out.Stats.SQLTime),
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
		jo.Trace = refTraceTree(out, opts.Trace)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jo); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkAgainstReference renders out with and without SQL and trace, through
// JSONOpts and the reference, and requires the same bytes, or an error from
// both.
func checkAgainstReference(t *testing.T, name string, out *core.Output) {
	t.Helper()
	tr := &Trace{Elapsed: 2345678 * time.Nanosecond, Workers: 4}
	for _, opts := range []JSONOptions{{}, {ShowSQL: true}, {Trace: tr}, {ShowSQL: true, Trace: tr}} {
		want, werr := referenceJSON(out, opts)
		var got bytes.Buffer
		gerr := JSONOpts(&got, out, opts)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s sql=%v trace=%v: error %v, reference error %v", name, opts.ShowSQL, opts.Trace != nil, gerr, werr)
		}
		if werr != nil {
			if got.Len() != 0 {
				t.Fatalf("%s: failed encoding wrote %d bytes", name, got.Len())
			}
			continue
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s sql=%v trace=%v: JSONOpts differs from encoding/json\ngot:\n%s\nwant:\n%s",
				name, opts.ShowSQL, opts.Trace != nil, got.Bytes(), want)
		}
	}
}

// reportCase is one Output to render, named for failure messages.
type reportCase struct {
	name string
	out  *core.Output
}

var dblifeRuns struct {
	once  sync.Once
	cases []reportCase
	err   error
}

// dblifeOutputs debugs Q1–Q10 at levels 3 and 5 with the server's default
// strategy, each unbounded and with a probe budget of 3, once per test
// binary. The runs bypass the verdict cache, so budgeted runs probe and cut
// explanations short.
func dblifeOutputs(tb testing.TB) []reportCase {
	tb.Helper()
	dblifeRuns.once.Do(func() {
		eng, err := dblife.Generate(dblife.Config{Seed: 1, Scale: 0.02})
		if err != nil {
			dblifeRuns.err = err
			return
		}
		for _, level := range []int{3, 5} {
			sys, err := core.Build(eng, lattice.Options{MaxJoins: level - 1, KeywordSlots: 3})
			if err != nil {
				dblifeRuns.err = err
				return
			}
			for _, q := range dblife.Workload() {
				for _, budget := range []int{0, 3} {
					out, err := sys.Debug(q.Keywords, core.Options{Strategy: core.SBH, ProbeBudget: budget, BypassCache: true})
					if err != nil {
						dblifeRuns.err = err
						return
					}
					name := fmt.Sprintf("%s level %d budget %d", q.ID, level, budget)
					dblifeRuns.cases = append(dblifeRuns.cases, reportCase{name, out})
				}
			}
		}
	})
	if dblifeRuns.err != nil {
		tb.Fatal(dblifeRuns.err)
	}
	return dblifeRuns.cases
}

// TestJSONMatchesReference holds AppendJSON to the encoding/json reference,
// byte for byte, with SQL and trace on and off: on Figure 2's queries, on
// DBLife Q1–Q10 at levels 3 and 5 (unbounded and budget-limited), and on
// hand-built outputs for the shapes runs rarely produce.
func TestJSONMatchesReference(t *testing.T) {
	sys, _ := exampleOutput(t)
	var cases []reportCase
	for _, kws := range [][]string{
		{"saffron", "scented", "candle"}, {"red", "oil"}, {"vanilla"}, {"saffron", "zzyzx"},
	} {
		for _, budget := range []int{0, 1} {
			out, err := sys.Debug(kws, core.Options{ProbeBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, reportCase{fmt.Sprintf("figure2 %v budget %d", kws, budget), out})
		}
	}
	cases = append(cases, dblifeOutputs(t)...)
	cases = append(cases,
		reportCase{"zero output", &core.Output{}},
		reportCase{"empty keywords and lists", &core.Output{
			Keywords: []string{}, NonKeywords: []string{}, Answers: []core.QueryInfo{},
			NonAnswers:   []core.NonAnswer{{Query: core.QueryInfo{NodeID: 3, Tree: "A#1"}, MPANs: []core.QueryInfo{}}},
			Unclassified: []core.QueryInfo{},
		}},
		reportCase{"reason without incomplete", &core.Output{Keywords: []string{"a"}, IncompleteReason: "deadline"}},
		reportCase{"non-keyword", &core.Output{
			Keywords: []string{"widom", "zzyzx"}, NonKeywords: []string{"zzyzx"},
			Stats: core.Stats{MapTime: 15 * time.Microsecond, LatticeNodes: 400, MTNs: 2},
		}},
	)

	// The cases must reach every optional field.
	var incomplete, reason, unclassified, exhausted, nonKeywords, phase3 bool
	for _, c := range cases {
		out := c.out
		incomplete = incomplete || out.Incomplete
		reason = reason || out.IncompleteReason != ""
		unclassified = unclassified || len(out.Unclassified) > 0
		nonKeywords = nonKeywords || len(out.NonKeywords) > 0
		phase3 = phase3 || (len(out.NonKeywords) == 0 && out.Stats.MTNs > 0)
		for _, na := range out.NonAnswers {
			exhausted = exhausted || na.Incomplete
		}
		checkAgainstReference(t, c.name, out)
	}
	if !incomplete || !reason || !unclassified || !exhausted || !nonKeywords || !phase3 {
		t.Errorf("cases miss a field: incomplete=%v incomplete_reason=%v unclassified=%v budget_exhausted=%v non_keywords=%v phase3=%v",
			incomplete, reason, unclassified, exhausted, nonKeywords, phase3)
	}
}

// TestFloatMatchesEncodingJSON covers the float formats a report's values
// rarely reach: exponent form at both cutoffs, negative zero, the extremes,
// and the values JSON cannot hold.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.001, 123.456, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-10,
		1e20, 1e21, -1e21, 1.234e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		want, werr := json.Marshal(f)
		w := jsonWriter{}
		w.float(f)
		if (werr != nil) != (w.err != nil) {
			t.Errorf("float %v: error %v, encoding/json error %v", f, w.err, werr)
			continue
		}
		if werr == nil && string(w.b) != string(want) {
			t.Errorf("float %v: wrote %s, encoding/json writes %s", f, w.b, want)
		}
	}
}

// FuzzJSONOpts compares AppendJSON with the reference on arbitrary strings
// in every string position (keywords, trees, SQL, the incomplete reason) and
// arbitrary durations and counts, which also drive reuse_percent through
// both exponent cutoffs.
func FuzzJSONOpts(f *testing.F) {
	f.Add("saffron", "Item#1-Item#2-PType#3", "SELECT * FROM Item t0 WHERE t0.name LIKE '%saffron%'",
		"probe_budget", int64(1234567), int64(89000), int64(-5), 42, 7, true, false)
	f.Add("<b>&amp;", "a b c", "\x00\x1f\"\\\t", "\xff\xfe", int64(0), int64(math.MaxInt64),
		int64(math.MinInt64), -1, 0, false, true)
	f.Add("", "", "", "", int64(999), int64(1), int64(1000), math.MaxInt64, math.MaxInt64-1, true, true)
	f.Add("naïve", "Person#1", "--", "deadline", int64(-1), int64(-1000), int64(1e15), 3, -1<<62, false, false)
	f.Fuzz(func(t *testing.T, kw, tree, sql, reason string, d1, d2, d3 int64, n1, n2 int, incomplete, nonKeyword bool) {
		q := core.QueryInfo{NodeID: n1, Level: n2, Tree: tree, SQL: sql}
		bare := core.QueryInfo{NodeID: n2, Level: 1, Tree: kw}
		out := &core.Output{
			Keywords:   []string{kw, tree},
			Answers:    []core.QueryInfo{q, bare},
			NonAnswers: []core.NonAnswer{{Query: bare, MPANs: []core.QueryInfo{q}, Incomplete: incomplete}, {Query: q}},
			Stats: core.Stats{
				Strategy: core.Strategy(n1 % 8), MapTime: time.Duration(d1), PruneTime: time.Duration(d2),
				MTNTime: time.Duration(d3), SQLTime: time.Duration(d1 ^ d2), TraverseTime: time.Duration(d2 - d3),
				LatticeNodes: n1, PrunedNodes: n2, MTNs: n1 - n2, SQLExecuted: n2, CacheHits: n1,
				Inferred: n1 + n2, SubNodes: n2, DescTotal: n1, DescUnique: n2,
			},
			Incomplete:       incomplete,
			IncompleteReason: reason,
		}
		if incomplete {
			out.Unclassified = []core.QueryInfo{q}
		}
		if nonKeyword {
			out.NonKeywords = []string{kw, sql}
		}
		tr := &Trace{Elapsed: time.Duration(d3), Workers: n2}
		for _, opts := range []JSONOptions{{}, {ShowSQL: true, Trace: tr}} {
			want, werr := referenceJSON(out, opts)
			got, gerr := AppendJSON(nil, out, opts)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("error %v, reference error %v", gerr, werr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON differs from encoding/json\ngot:\n%s\nwant:\n%s", got, want)
			}
		}
	})
}

// TestJSONOptsAllocs pins JSONOpts at one allocation per call, the report's
// presized slice, on every Q1–Q10 output, with and without the trace. The
// reflection encoder it replaced made 10 to ~150.
func TestJSONOptsAllocs(t *testing.T) {
	tr := &Trace{Elapsed: time.Millisecond, Workers: 1}
	for _, c := range dblifeOutputs(t) {
		for _, opts := range []JSONOptions{{}, {Trace: tr}} {
			allocs := testing.AllocsPerRun(20, func() {
				if err := JSONOpts(io.Discard, c.out, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("%s trace=%v: JSONOpts allocates %v per call, budget 1", c.name, opts.Trace != nil, allocs)
			}
		}
	}
}

// TestQueryEntryAllocFree is the //kws:hotpath harness for
// (*jsonWriter).query: writing one entry, SQL included, into a slice with
// room allocates nothing.
func TestQueryEntryAllocFree(t *testing.T) {
	out := &core.Output{}
	q := core.QueryInfo{NodeID: 1234, Level: 3, Tree: "Person#1-writes#0-Publication#2",
		SQL: "SELECT * FROM Person t0, writes t1, Publication t2 WHERE t0.name LIKE '%widom%'"}
	w := jsonWriter{b: make([]byte, 0, 4096), out: out, sql: true}
	allocs := testing.AllocsPerRun(1000, func() {
		w.b, w.depth, w.empty = w.b[:0], 4, true
		w.query(q)
	})
	if allocs != 0 {
		t.Errorf("query entry allocates %v per call, budget 0", allocs)
	}
	if !bytes.Contains(w.b, []byte(`"sql": "SELECT`)) {
		t.Errorf("entry without its SQL: %s", w.b)
	}
}

// BenchmarkJSONOpts encodes the level-5 Q1–Q10 reports (unbudgeted, no SQL
// or trace, as a plain /debug sends them) per iteration, through the writer
// and through the encoding/json reference.
func BenchmarkJSONOpts(b *testing.B) {
	var outs []*core.Output
	for _, c := range dblifeOutputs(b) {
		if strings.HasSuffix(c.name, "level 5 budget 0") {
			outs = append(outs, c.out)
		}
	}
	for _, enc := range []struct {
		name string
		fn   func(*core.Output) error
	}{
		{"writer", func(out *core.Output) error { return JSONOpts(io.Discard, out, JSONOptions{}) }},
		{"reference", func(out *core.Output) error { _, err := referenceJSON(out, JSONOptions{}); return err }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, out := range outs {
					if err := enc.fn(out); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
