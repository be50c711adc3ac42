package engine

import "kwsdbg/internal/sqltext"

// ProductScript exposes the Figure 2 load script to the engine_test
// package, whose tests also load DBLife (which imports engine).
const ProductScript = productScript

// OvercountIndexedRows makes the engine believe its index covers n more rows
// of table than storage holds: the state a table that shrank leaves behind.
// Storage tables only grow, so tests reach the shrink path this way.
func (e *Engine) OvercountIndexedRows(table string, n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncIndexLocked()
	e.ixSizes[table] += n
}

// CheckKernel plans sel (through cands when non-nil) and runs the plan
// through the compiled kernel and through the reference executor of
// kernel_test.go, reporting the first difference in result rows (in order)
// or in rows scanned.
func (e *Engine) CheckKernel(sel *sqltext.Select, cands *CandidateCache) error {
	_, err := checkKernel(e, sel, cands)
	return err
}
