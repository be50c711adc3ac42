// Package kwsdbg reproduces "On Debugging Non-Answers in Keyword Search
// Systems" (Baid, Wu, Sun, Doan, Naughton; EDBT 2015): a keyword-search-
// over-structured-data system that, instead of suppressing the "no results
// found" page, explains every non-answer query through its maximal nonempty
// sub-queries.
//
// The root package carries the repository-level benchmarks (one per table
// and figure of the paper's evaluation) and two timing guards; the
// implementation lives under internal/:
//
//   - internal/core     — phases 1-3: pruning, MTNs, traversals, baselines
//   - internal/lattice  — phase 0: the offline query-template lattice
//   - internal/engine   — embedded SQL execution engine (the PostgreSQL stand-in)
//   - internal/sqltext  — SQL lexer/parser/printer for the engine's dialect
//   - internal/sqldriver — database/sql driver over the engine (the JDBC stand-in)
//   - internal/storage  — tables, rows, hash indexes
//   - internal/invidx   — inverted text index (the Lucene stand-in)
//   - internal/dblife   — synthetic DBLife dataset and the Table 2 workload
//   - internal/figure2  — the paper's toy product database
//   - internal/bench    — experiment harness behind cmd/experiments
//
// The serving stack's performance is measured by kwsbench (cmd/kwsbench,
// internal/kwsbench), the benchmark named in BENCHMARK.json.
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package kwsdbg
