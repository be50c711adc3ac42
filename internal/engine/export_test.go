package engine

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
