package report

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"kwsdbg/internal/core"
	"kwsdbg/internal/figure2"
	"kwsdbg/internal/lattice"
)

func exampleOutput(t *testing.T) (*core.System, *core.Output) {
	t.Helper()
	eng, err := figure2.Engine()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(eng, lattice.Options{MaxJoins: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Debug([]string{"saffron", "scented", "candle"}, core.Options{Strategy: core.SBH})
	if err != nil {
		t.Fatal(err)
	}
	return sys, out
}

func TestTextBasic(t *testing.T) {
	_, out := exampleOutput(t)
	var sb strings.Builder
	if err := Text(&sb, out, Options{}); err != nil {
		t.Fatalf("Text: %v", err)
	}
	got := sb.String()
	for _, want := range []string{
		"1 answer queries, 4 non-answer queries",
		"ALIVE Item#1-Item#2-PType#3",
		"DEAD  Color#1-Item#2-PType#3",
		"alive up to: Item#2-PType#3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("text missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "SELECT") {
		t.Error("SQL shown without ShowSQL")
	}
}

// TestTextVerdictCacheHits renders a run some of whose probes the verdict
// cache answered: the summary line says how many.
func TestTextVerdictCacheHits(t *testing.T) {
	_, out := exampleOutput(t)
	out.Stats.SQLExecuted, out.Stats.CacheHits, out.Stats.SQLTime = 12, 12, 0
	var sb strings.Builder
	if err := Text(&sb, out, Options{}); err != nil {
		t.Fatalf("Text: %v", err)
	}
	if want := "1 answer queries, 4 non-answer queries (12 SQL probes, 12 from the verdict cache, 0s)\n"; !strings.HasPrefix(sb.String(), want) {
		t.Errorf("text does not start with %q:\n%s", want, sb.String())
	}
}

func TestTextShowSQLAndPreview(t *testing.T) {
	sys, out := exampleOutput(t)
	var sb strings.Builder
	if err := Text(&sb, out, Options{ShowSQL: true, Preview: 2, Sys: sys}); err != nil {
		t.Fatalf("Text: %v", err)
	}
	got := sb.String()
	if !strings.Contains(got, "SELECT * FROM") {
		t.Error("ShowSQL did not include SQL")
	}
	if !strings.Contains(got, "t0.") && !strings.Contains(got, "=") {
		t.Error("preview rows missing")
	}
}

func TestTextMaxMPANs(t *testing.T) {
	_, out := exampleOutput(t)
	var sb strings.Builder
	if err := Text(&sb, out, Options{MaxMPANs: 1}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.Contains(got, "more maximal alive sub-queries") {
		t.Errorf("cap notice missing:\n%s", got)
	}
}

func TestTextNonKeywords(t *testing.T) {
	out := &core.Output{Keywords: []string{"zzz"}, NonKeywords: []string{"zzz"}}
	var sb strings.Builder
	if err := Text(&sb, out, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "not found anywhere") {
		t.Errorf("text = %q", sb.String())
	}
}

// failingWriter accepts ok writes, then fails every later one.
type failingWriter struct{ ok, writes int }

var errWriteFailed = errors.New("write failed")

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.ok {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestTextReturnsWriteErrors fails the writer at each line of a report in
// turn, and Text must return the failure every time: the SQL, MPAN,
// "... and N more", "(explanation incomplete ...)" and preview lines
// included, so a writer failing after the last DEAD line is reported too.
func TestTextReturnsWriteErrors(t *testing.T) {
	sys, out := exampleOutput(t)
	q := core.QueryInfo{NodeID: 7, Level: 2, Tree: "Item#1-PType#2", SQL: "SELECT 1"}
	budgeted := &core.Output{
		Keywords:         []string{"saffron", "candle"},
		NonAnswers:       []core.NonAnswer{{Query: q, MPANs: []core.QueryInfo{q}, Incomplete: true}},
		Incomplete:       true,
		IncompleteReason: core.ReasonProbeBudget,
		Unclassified:     []core.QueryInfo{q},
	}
	for _, c := range []struct {
		name string
		out  *core.Output
		opts Options
	}{
		{"sql, preview, capped mpans", out, Options{ShowSQL: true, MaxMPANs: 1, Preview: 2, Sys: sys}},
		{"plain", out, Options{}},
		{"budgeted", budgeted, Options{ShowSQL: true}},
		{"non-keyword", &core.Output{Keywords: []string{"zzz"}, NonKeywords: []string{"zzz"}}, Options{}},
	} {
		count := &failingWriter{ok: 1 << 30}
		if err := Text(count, c.out, c.opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for ok := 0; ok < count.writes; ok++ {
			if err := Text(&failingWriter{ok: ok}, c.out, c.opts); !errors.Is(err, errWriteFailed) {
				t.Errorf("%s: write %d of %d failed, Text returned %v", c.name, ok+1, count.writes, err)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	_, out := exampleOutput(t)
	var sb strings.Builder
	if err := JSON(&sb, out, true); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var decoded struct {
		Keywords   []string `json:"keywords"`
		Answers    []any    `json:"answers"`
		NonAnswers []struct {
			Query struct {
				Tree string `json:"tree"`
				SQL  string `json:"sql"`
			} `json:"query"`
			MPANs []any `json:"mpans"`
		} `json:"non_answers"`
		Stats struct {
			Strategy    string `json:"strategy"`
			MTNs        int    `json:"mtns"`
			SQLExecuted int    `json:"sql_executed"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(decoded.Answers) != 1 || len(decoded.NonAnswers) != 4 {
		t.Errorf("answers=%d nonanswers=%d", len(decoded.Answers), len(decoded.NonAnswers))
	}
	if decoded.Stats.Strategy != "SBH" || decoded.Stats.MTNs != 5 {
		t.Errorf("stats = %+v", decoded.Stats)
	}
	if decoded.NonAnswers[0].Query.SQL == "" {
		t.Error("showSQL=true omitted SQL")
	}
	// Without SQL.
	sb.Reset()
	if err := JSON(&sb, out, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "SELECT") {
		t.Error("showSQL=false leaked SQL")
	}
}

func TestJSONEmptyOutput(t *testing.T) {
	out := &core.Output{Keywords: []string{"a"}}
	var sb strings.Builder
	if err := JSON(&sb, out, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"answers": []`) {
		t.Errorf("empty arrays must serialize as [], got %s", sb.String())
	}
}
