package engine

import (
	"fmt"
	"strings"

	"kwsdbg/internal/sqltext"
)

// Explain describes how the engine would execute a SELECT: the join order
// the planner chose, each alias's access path (index candidates versus full
// scan, and which predicates the candidate list already guarantees), the
// joins each alias is bound on (the one its hash lookup enforces first), and
// the residual predicates applied to complete bindings. It prints the same
// compiled steps an execution runs. No data is touched beyond what planning
// itself needs (index lookups for candidate lists).
func (e *Engine) Explain(query string) (string, error) {
	stmt, err := sqltext.Parse(query)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sqltext.Select)
	if !ok {
		return "", fmt.Errorf("engine: Explain requires SELECT, got %T", stmt)
	}
	bq, err := e.resolve(sel)
	if err != nil {
		return "", err
	}
	plans, order := e.plan(bq)

	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for: %s\n", sqltext.Print(sel))
	for depth, s := range compile(bq, plans, order) {
		a := s.a
		fmt.Fprintf(&sb, "%d. %s AS %s", depth+1, bq.rels[a].Name, bq.aliases[a])
		switch {
		case s.indexed:
			fmt.Fprintf(&sb, " via index candidates (%d rows, %d/%d local predicates covered)",
				len(s.set.ids), len(bq.local[a])-len(s.filters), len(bq.local[a]))
		default:
			fmt.Fprintf(&sb, " via scan (%d rows", s.tbl.RowCount())
			if len(bq.local[a]) > 0 {
				fmt.Fprintf(&sb, ", %d filter predicates", len(bq.local[a]))
			}
			sb.WriteString(")")
		}
		if depth > 0 {
			var on []string
			if s.look != nil {
				on = append(on, fmt.Sprintf("%s (hash lookup on %s.%s)", joinString(bq, s.look),
					bq.aliases[a], bq.rels[a].Columns[s.col].Name))
			}
			for _, j := range s.joins {
				on = append(on, joinString(bq, j))
			}
			if len(on) > 0 {
				fmt.Fprintf(&sb, " joined on %s", strings.Join(on, " AND "))
			} else {
				sb.WriteString(" (cross product)")
			}
		}
		sb.WriteByte('\n')
	}
	if len(bq.residual) > 0 {
		fmt.Fprintf(&sb, "residual predicates: %d applied per complete binding\n", len(bq.residual))
	}
	return sb.String(), nil
}

func joinString(bq *boundQuery, j *rcmp) string {
	return fmt.Sprintf("%s.%s = %s.%s",
		bq.aliases[j.left.a], bq.rels[j.left.a].Columns[j.left.c].Name,
		bq.aliases[j.right.a], bq.rels[j.right.a].Columns[j.right.c].Name)
}
