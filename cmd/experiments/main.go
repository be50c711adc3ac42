// Command experiments regenerates every table and figure of the paper's
// evaluation section over the synthetic DBLife dataset.
//
// Usage:
//
//	experiments [-scale 0.05] [-seed 1] [-maxlevel 5] [-only fig11,tab4] [-v]
//
// With -maxlevel 7 the level-7 columns of Table 3, Table 4, Figure 13, and
// Figure 15 are produced as in the paper; level 7 lattices take tens of
// seconds and a few gigabytes, so the default stops at level 5.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"kwsdbg/internal/bench"
	"kwsdbg/internal/dblife"
)

func main() {
	scale := flag.Float64("scale", 0.05, "dataset scale factor (1.0 = the paper's ~801k tuples)")
	seed := flag.Int64("seed", 1, "dataset generator seed")
	maxLevel := flag.Int("maxlevel", 5, "deepest lattice level to evaluate (paper uses up to 7)")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	cacheDir := flag.String("cachedir", "", "directory for persisted lattices (skips regeneration on reruns)")
	verbose := flag.Bool("v", false, "log progress to stderr")
	flag.Parse()

	if err := run(os.Stdout, *scale, *seed, *maxLevel, *only, *cacheDir, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scale float64, seed int64, maxLevel int, only, cacheDir string, verbose bool) error {
	if maxLevel < 3 {
		return fmt.Errorf("-maxlevel must be >= 3")
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[id] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }
	logf := func(format string, args ...any) {
		if verbose {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	logf("generating DBLife dataset (scale=%v seed=%d)...", scale, seed)
	env, err := bench.NewEnv(dblife.Config{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	env.CacheDir = cacheDir
	fmt.Fprintf(w, "dataset: %d tuples (scale %v, seed %d); keyword slots 3\n\n",
		env.Engine().Database().TotalRows(), scale, seed)

	// The level grid the paper uses, clipped to -maxlevel.
	grid := []int{}
	for _, l := range []int{3, 5, 7} {
		if l <= maxLevel {
			grid = append(grid, l)
		}
	}
	mid := grid[len(grid)-1]
	if mid > 5 {
		mid = 5
	}

	emit := func(t *bench.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t.Render())
		return nil
	}

	type step struct {
		id  string
		run func() (*bench.Table, error)
	}
	steps := []step{
		{"tab2", func() (*bench.Table, error) { return bench.Table2(), nil }},
		{"fig9a", func() (*bench.Table, error) { return bench.Fig9a(env, maxLevel) }},
		{"fig9b", func() (*bench.Table, error) { return bench.Fig9b(env, maxLevel) }},
		{"phase12", func() (*bench.Table, error) { return bench.Phase12(env, mid) }},
		{"fig10", func() (*bench.Table, error) { return bench.Fig10(env, mid) }},
		{"fig11", func() (*bench.Table, error) { return bench.Fig11(env, mid) }},
		{"fig12", func() (*bench.Table, error) { return bench.Fig12(env, mid) }},
		{"tab3", func() (*bench.Table, error) { return bench.Table3(env, grid) }},
		{"tab4", func() (*bench.Table, error) { return bench.Table4(env, "Q3", grid) }},
		{"fig13", func() (*bench.Table, error) { return bench.Fig13(env, grid) }},
		{"fig14", func() (*bench.Table, error) { return bench.Alternatives(env, mid) }},
	}
	if maxLevel >= 7 {
		steps = append(steps, step{"fig15", func() (*bench.Table, error) { return bench.Alternatives(env, 7) }})
	}
	if maxLevel >= 5 {
		// The write-churn sweep needs the level-5 lattice: below it Q3
		// prunes without issuing SQL and there are no verdicts to churn.
		steps = append(steps, step{"writes", func() (*bench.Table, error) {
			t, _, err := bench.WritesSweep(env, 5)
			return t, err
		}})
	}
	steps = append(steps,
		step{"rn-coverage", func() (*bench.Table, error) { return bench.RNCoverage(env, mid) }},
		step{"online-cn", func() (*bench.Table, error) { return bench.OnlineCN(env, mid) }},
		step{"ablation-pa", func() (*bench.Table, error) {
			return bench.AblationPa(env, mid, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
		}},
		step{"ablation-skew", func() (*bench.Table, error) {
			return bench.AblationSkew(env, mid, 1.4)
		}},
		step{"ablation-copies", func() (*bench.Table, error) {
			l := maxLevel
			if l > 4 {
				l = 4 // the literal lattice explodes beyond level 4
			}
			return bench.AblationCopies(env, l)
		}},
		// Last, so the snapshot reflects every experiment above; its probe
		// counters must agree with the per-figure SQL counts.
		step{"metrics", func() (*bench.Table, error) { return bench.MetricsTable(), nil }},
	)

	for _, s := range steps {
		if !want(s.id) {
			continue
		}
		start := time.Now()
		logf("running %s...", s.id)
		if err := emit(s.run()); err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
		logf("%s done in %v", s.id, time.Since(start))
	}
	return nil
}
