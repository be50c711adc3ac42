// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§3), each producing a rendered text table with
// the same rows and series the paper reports. The cmd/experiments binary and
// the repository-level benchmarks are thin wrappers around these runners.
//
// The package reproduces the paper; it does not measure the serving stack.
// Performance is measured by kwsbench (cmd/kwsbench, named in BENCHMARK.json),
// which times /debug and /search over HTTP and breaks requests down by layer.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/obs"
)

// Table is one rendered experiment artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	if t.Notes != "" {
		sb.WriteString("note: " + t.Notes + "\n")
	}
	return sb.String()
}

// Env is the shared experiment environment: one synthetic DBLife database
// plus lazily built debuggers per lattice depth. Slots are capped at the
// workload's three keywords, as discussed in DESIGN.md.
type Env struct {
	Cfg dblife.Config
	// CacheDir, when set, persists each level's lattice (lattice.Save) so
	// repeated experiment runs skip Phase 0 — the level-7 lattice takes
	// tens of seconds to generate and under two to load.
	CacheDir string
	eng      *engine.Engine

	mu      sync.Mutex
	systems map[int]*core.System // keyed by maxJoins
}

// NewEnv generates the dataset.
func NewEnv(cfg dblife.Config) (*Env, error) {
	eng, err := dblife.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Env{Cfg: cfg, eng: eng, systems: make(map[int]*core.System)}, nil
}

// Engine exposes the generated database.
func (e *Env) Engine() *engine.Engine { return e.eng }

// System returns (building on first use) the debugger whose lattice covers
// the given level (level = maxJoins + 1).
func (e *Env) System(level int) (*core.System, error) {
	if level < 1 {
		return nil, fmt.Errorf("bench: level must be >= 1, got %d", level)
	}
	maxJoins := level - 1
	e.mu.Lock()
	defer e.mu.Unlock()
	if sys, ok := e.systems[maxJoins]; ok {
		return sys, nil
	}
	lat, err := e.obtainLattice(maxJoins)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(e.eng, lat)
	if err != nil {
		return nil, err
	}
	e.systems[maxJoins] = sys
	return sys, nil
}

// obtainLattice loads the level's lattice from the cache directory when
// possible, generating (and caching) it otherwise.
func (e *Env) obtainLattice(maxJoins int) (*lattice.Lattice, error) {
	opts := lattice.Options{MaxJoins: maxJoins, KeywordSlots: 3}
	schema := e.eng.Database().Schema()
	if e.CacheDir == "" {
		return lattice.GenerateOpts(schema, opts)
	}
	path := filepath.Join(e.CacheDir, fmt.Sprintf("dblife-m%d-s3.gob", maxJoins))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		lat, err := lattice.Load(f, schema)
		if err != nil {
			return nil, fmt.Errorf("bench: lattice cache %s: %w", path, err)
		}
		return lat, nil
	}
	lat, err := lattice.GenerateOpts(schema, opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.CacheDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := lat.Save(f); err != nil {
		return nil, fmt.Errorf("bench: lattice cache %s: %w", path, err)
	}
	return lat, nil
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// MetricsTable snapshots the process-wide obs registry as a rendered table.
// The experiment harness prints it last, so the probe counts accumulated in
// kwsdbg_probe_total can be cross-checked against the per-figure tables —
// the same numbers a scrape of GET /metrics would report.
func MetricsTable() *Table {
	t := &Table{
		ID:      "metrics",
		Title:   "process metrics snapshot (as GET /metrics would report)",
		Columns: []string{"metric", "value"},
		Notes:   "histograms appear as their _count and _sum; counters accumulate across every experiment above",
	}
	for _, s := range obs.Default.Samples() {
		name := s.Name
		if s.Labels != "" {
			name += "{" + s.Labels + "}"
		}
		t.Rows = append(t.Rows, []string{name, strconv.FormatFloat(s.Value, 'g', -1, 64)})
	}
	return t
}
