package engine_test

import (
	"testing"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/sqltext"
)

// TestKernelMatchesReferenceDBLife runs the row query of every answer,
// non-answer and MPAN of Q1–Q10 on DBLife (scale 0.02, levels 3 and 5)
// through the compiled kernel and the reference executor, at LIMIT 1, 500
// and none. Each query is planned through its run's candidate-set cache, as
// the debugger plans it, so cached sets and their shared membership indexes
// are exercised. Rows must agree in order, and so must rows scanned.
func TestKernelMatchesReferenceDBLife(t *testing.T) {
	eng, err := dblife.Generate(dblife.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, level := range []int{3, 5} {
		sys, err := core.Build(eng, lattice.Options{MaxJoins: level - 1, KeywordSlots: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range dblife.Workload() {
			out, err := sys.Debug(q.Keywords, core.Options{})
			if err != nil {
				t.Fatalf("level %d %s: %v", level, q.ID, err)
			}
			queries := append([]core.QueryInfo{}, out.Answers...)
			for _, na := range out.NonAnswers {
				queries = append(queries, na.Query)
				queries = append(queries, na.MPANs...)
			}
			cands := engine.NewCandidateCache()
			seen := map[string]bool{}
			for _, qi := range queries {
				sql := out.QuerySQL(qi)
				if seen[sql] {
					continue
				}
				seen[sql] = true
				stmt, err := sqltext.Parse(sql)
				if err != nil {
					t.Fatalf("level %d %s: %s: %v", level, q.ID, sql, err)
				}
				sel := stmt.(*sqltext.Select)
				for _, limit := range []int{1, 500, -1} {
					sel.Limit = limit
					if err := eng.CheckKernel(sel, cands); err != nil {
						t.Fatalf("level %d %s, LIMIT %d: %v", level, q.ID, limit, err)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d row queries agree", checked)
}
