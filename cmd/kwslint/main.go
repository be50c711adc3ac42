// Command kwslint is the repo's multichecker: it runs the internal/lint
// analyzer suite over the module and fails the build on any diagnostic.
//
// The eight analyzers encode invariants that previously lived only in
// reviewers' heads (see DESIGN.md §10 and §14):
//
//	determinism  no wall-clock/randomness or map-order leaks in output paths
//	ctxflow      contexts are threaded, never dropped or re-minted
//	metricname   every kwsdbg_* metric is well-formed and registered
//	errwrap      error chains survive wrapping; sentinels use errors.Is
//	lockflow     CFG-based Lock/Unlock balance on every path; `guarded by mu`
//	             fields touched only where mu is held; lock-order cycles
//	leakcheck    every `go` statement carries join or cancellation evidence
//	hotpath      //kws:hotpath functions avoid allocation-prone constructs
//	eventkind    flight Kind enum, kindNames, and registry stay in lockstep
//
// Usage:
//
//	kwslint [-run name,name] [-list] [packages...]
//
// Packages default to ./... relative to the working directory. Exit status
// is 0 when clean, 1 when diagnostics were reported, 2 on load failure.
// Diagnostics are suppressed line-by-line with
//
//	//lint:ignore kwslint/<name> reason
//
// where the reason is mandatory (see internal/lint/ignore). A directive that
// names a check outside the full suite suppresses nothing, so it is reported
// under kwslint/directive, whatever -run selects.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"kwsdbg/internal/lint/analysis"
	"kwsdbg/internal/lint/ctxflow"
	"kwsdbg/internal/lint/determinism"
	"kwsdbg/internal/lint/errwrap"
	"kwsdbg/internal/lint/eventkind"
	"kwsdbg/internal/lint/hotpath"
	"kwsdbg/internal/lint/ignore"
	"kwsdbg/internal/lint/leakcheck"
	"kwsdbg/internal/lint/loadpkg"
	"kwsdbg/internal/lint/lockflow"
	"kwsdbg/internal/lint/metricname"
)

// suite is the full analyzer set, in stable display order.
var suite = []*analysis.Analyzer{
	ctxflow.Analyzer,
	determinism.Analyzer,
	errwrap.Analyzer,
	eventkind.Analyzer,
	hotpath.Analyzer,
	leakcheck.Analyzer,
	lockflow.Analyzer,
	metricname.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kwslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Check(), a.Doc)
		}
		return 0
	}

	analyzers := suite
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "kwslint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "kwslint: %v\n", err)
		return 2
	}
	set, err := loadpkg.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "kwslint: %v\n", err)
		return 2
	}

	var diags []analysis.Diagnostic
	for _, pkg := range set.Packages() {
		dirs, malformed := ignore.Parse(pkg.Fset, pkg.Files)
		diags = append(diags, malformed...)
		diags = append(diags, unknownChecks(dirs)...)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "kwslint: %s on %s: %v\n", a.Name, pkg.ImportPath, err)
				return 2
			}
			diags = append(diags, ignore.Filter(pkg.Fset, dirs, pass.Diags)...)
		}
	}

	fset := set.Fset()
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Check < diags[j].Check
	})
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		name := pos.Filename
		if rel, err := relPath(wd, name); err == nil {
			name = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", name, pos.Line, pos.Column, d.Check, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "kwslint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}

// unknownChecks reports each check a directive names that no analyzer of
// the full suite reports under: such a waiver suppresses nothing.
func unknownChecks(dirs []ignore.Directive) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range dirs {
		for _, c := range d.Checks {
			if !slices.ContainsFunc(suite, func(a *analysis.Analyzer) bool { return a.Check() == c }) {
				out = append(out, analysis.Diagnostic{
					Pos:     d.Pos,
					Check:   ignore.DirectiveCheck,
					Message: fmt.Sprintf("lint:ignore names %q, which no kwslint analyzer reports (see kwslint -list); it suppresses nothing", c),
				})
			}
		}
	}
	return out
}

// relPath shortens filenames under the working directory.
func relPath(wd, name string) (string, error) {
	if !strings.HasPrefix(name, wd+string(os.PathSeparator)) {
		return "", fmt.Errorf("outside wd")
	}
	return name[len(wd)+1:], nil
}
