// Command kwsdbg is the interactive non-answer debugger: it loads a dataset,
// accepts keyword queries, and reports answer queries, non-answer queries,
// and — for every non-answer — the maximal alive sub-queries (MPANs) that
// explain it, exactly the output the paper's system presents to developers.
//
// Usage:
//
//	kwsdbg -dataset figure2 saffron scented candle
//	kwsdbg -dataset dblife -scale 0.02 -maxjoins 4          # then type queries
//	echo "Widom Trio" | kwsdbg -dataset dblife -json
//
// In interactive mode each keyword query opens a session; what-if commands
// let the developer pin hypothetical facts and re-run without touching the
// database (the paper's "combine the search for MPANs with user
// intervention"). Every session reads and writes one verdict cache for the
// whole REPL, so retyping a query, or typing one that shares sub-queries
// with an earlier line, reuses the verdicts already proved:
//
//	> saffron scented candle
//	> :pin 123 alive        # assume node 123's sub-query matched
//	> :unpin 123
//	> :pins                 # list assumptions
//	> :reset                # re-index and re-probe everything after data edits
//
// The offline lattice can be cached across runs with -cache file.gob.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/figure2"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
	"kwsdbg/internal/report"
)

func main() {
	cfg := parseFlags()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kwsdbg:", err)
		os.Exit(1)
	}
}

type config struct {
	dataset   string
	scale     float64
	seed      int64
	maxJoins  int
	slots     int
	strategy  string
	preview   int
	showSQL   bool
	asJSON    bool
	cachePath string
	search    bool
	topK      int
	args      []string
}

func parseFlags() config {
	var c config
	flag.StringVar(&c.dataset, "dataset", "figure2", "dataset: figure2 | dblife | a SQL script path")
	flag.Float64Var(&c.scale, "scale", 0.02, "dblife dataset scale factor")
	flag.Int64Var(&c.seed, "seed", 1, "dblife dataset seed")
	flag.IntVar(&c.maxJoins, "maxjoins", 2, "lattice join bound (lattice has maxjoins+1 levels)")
	flag.IntVar(&c.slots, "slots", 3, "maximum keywords per query")
	flag.StringVar(&c.strategy, "strategy", "SBH", "traversal: BU | TD | BUWR | TDWR | SBH | RE")
	flag.IntVar(&c.preview, "preview", 3, "result tuples to preview per alive query (0 = none)")
	flag.BoolVar(&c.showSQL, "sql", false, "print the SQL of every reported query")
	flag.BoolVar(&c.asJSON, "json", false, "emit JSON instead of text")
	flag.StringVar(&c.cachePath, "cache", "", "lattice cache file (generated if absent, loaded if present)")
	flag.BoolVar(&c.search, "search", false, "end-user mode: return ranked joined tuples instead of the debugging report")
	flag.IntVar(&c.topK, "topk", 10, "results returned in -search mode")
	flag.Parse()
	c.args = flag.Args()
	return c
}

func run(c config) error {
	strat, err := parseStrategy(c.strategy)
	if err != nil {
		return err
	}
	eng, err := loadDataset(c.dataset, c.scale, c.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %s: %d tuples\n", c.dataset, eng.Database().TotalRows())
	lat, err := obtainLattice(eng, c)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(eng, lat)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lattice ready: %d nodes, %d levels\n", lat.Len(), lat.Levels())

	ropts := report.Options{ShowSQL: c.showSQL, Preview: c.preview, Sys: sys}
	emit := func(out *core.Output) {
		if c.asJSON {
			if err := report.JSON(os.Stdout, out, c.showSQL); err != nil {
				fmt.Fprintln(os.Stderr, "  error:", err)
			}
			return
		}
		if err := report.Text(os.Stdout, out, ropts); err != nil {
			fmt.Fprintln(os.Stderr, "  error:", err)
		}
	}

	if c.search {
		return searchMode(sys, c)
	}
	if len(c.args) > 0 {
		out, err := sys.Debug(c.args, core.Options{Strategy: strat})
		if err != nil {
			return err
		}
		emit(out)
		return nil
	}
	return interact(os.Stdin, sys, strat, emit)
}

// searchMode serves the end-user side of the KWS-S system: ranked joined
// tuples for the keyword query (from the command line or stdin).
func searchMode(sys *core.System, c config) error {
	serve := func(keywords []string) {
		full, partial, missing, err := sys.SearchPartial(keywords, c.topK)
		if err != nil {
			fmt.Fprintln(os.Stderr, "  error:", err)
			return
		}
		switch {
		case len(missing) > 0:
			fmt.Printf("no results: %s not found anywhere in the data\n", strings.Join(missing, ", "))
		case len(full) > 0:
			for i, r := range full {
				fmt.Printf("%2d. %s\n", i+1, r)
			}
		case len(partial) > 0:
			// The paper's Figure 1: offer the maximal sub-queries' results
			// instead of an empty page.
			fmt.Printf("no exact matches for %q; closest partial matches:\n", strings.Join(keywords, " "))
			for i, p := range partial {
				fmt.Printf("%2d. [%s] %s\n", i+1, strings.Join(p.Covered, "+"), p.SearchResult)
			}
		default:
			fmt.Println("no results at all (run without -search to debug why)")
		}
	}
	if len(c.args) > 0 {
		serve(c.args)
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("search> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		if fields := strings.Fields(sc.Text()); len(fields) > 0 {
			serve(fields)
		}
	}
}

// interact runs the REPL over the lines of in: keyword queries plus session
// what-if commands. It installs a verdict cache on sys when none is
// installed, so the sessions of successive lines share their verdicts.
func interact(in io.Reader, sys *core.System, strat core.Strategy, emit func(*core.Output)) error {
	if sys.ProbeCache() == nil {
		sys.SetProbeCache(probecache.New(probecache.Config{}))
	}
	fmt.Println("enter keyword queries, one per line; :help for commands; ctrl-D to exit")
	var sess *core.Session
	sc := bufio.NewScanner(in)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, ":"):
			if err := command(sys, &sess, strat, line, emit); err != nil {
				fmt.Fprintln(os.Stderr, "  error:", err)
			}
		default:
			var err error
			sess, err = sys.NewSession(strings.Fields(line))
			if err != nil {
				fmt.Fprintln(os.Stderr, "  error:", err)
				continue
			}
			out, err := sess.Run(core.Options{Strategy: strat})
			if err != nil {
				fmt.Fprintln(os.Stderr, "  error:", err)
				continue
			}
			emit(out)
		}
	}
}

func command(sys *core.System, sess **core.Session, strat core.Strategy, line string, emit func(*core.Output)) error {
	fields := strings.Fields(line)
	rerun := func() error {
		if *sess == nil {
			return fmt.Errorf("no active query; enter a keyword query first")
		}
		out, err := (*sess).Run(core.Options{Strategy: strat})
		if err != nil {
			return err
		}
		emit(out)
		return nil
	}
	switch fields[0] {
	case ":help":
		fmt.Println("  :pin <node> alive|dead   assume a sub-query's status and re-run")
		fmt.Println("  :unpin <node>            drop an assumption and re-run")
		fmt.Println("  :pins                    list assumptions")
		fmt.Println("  :reset                   re-index and re-probe everything (after data edits)")
		fmt.Println("  :explain <node>          show the engine's plan for a node's probe")
		fmt.Println("  :search <keywords...>    end-user view: ranked joined tuples")
		return nil
	case ":explain":
		if *sess == nil {
			return fmt.Errorf("no active query")
		}
		if len(fields) != 2 {
			return fmt.Errorf("usage: :explain <node>")
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil || id < 0 || id >= sys.Lattice().Len() {
			return fmt.Errorf("bad node id %q", fields[1])
		}
		probe, err := sys.Lattice().SQL(sys.Lattice().Node(id), (*sess).Keywords(), true)
		if err != nil {
			return err
		}
		plan, err := sys.Engine().Explain(probe)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	case ":search":
		if len(fields) < 2 {
			return fmt.Errorf("usage: :search <keywords...>")
		}
		results, missing, err := sys.Search(fields[1:], 10)
		if err != nil {
			return err
		}
		if len(missing) > 0 {
			fmt.Printf("  %s not found anywhere in the data\n", strings.Join(missing, ", "))
			return nil
		}
		for i, r := range results {
			fmt.Printf("  %2d. %s\n", i+1, r)
		}
		return nil
	case ":pin":
		if *sess == nil {
			return fmt.Errorf("no active query")
		}
		if len(fields) != 3 || (fields[2] != "alive" && fields[2] != "dead") {
			return fmt.Errorf("usage: :pin <node> alive|dead")
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil || id < 0 || id >= sys.Lattice().Len() {
			return fmt.Errorf("bad node id %q", fields[1])
		}
		(*sess).Pin(id, fields[2] == "alive")
		return rerun()
	case ":unpin":
		if *sess == nil {
			return fmt.Errorf("no active query")
		}
		if len(fields) != 2 {
			return fmt.Errorf("usage: :unpin <node>")
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("bad node id %q", fields[1])
		}
		(*sess).Unpin(id)
		return rerun()
	case ":pins":
		if *sess == nil {
			return fmt.Errorf("no active query")
		}
		for _, id := range (*sess).Pins() {
			fmt.Printf("  %d  %s\n", id, sys.Lattice().Node(id))
		}
		return nil
	case ":reset":
		if *sess == nil {
			return fmt.Errorf("no active query")
		}
		sys.Engine().InvalidateIndex()
		return rerun()
	default:
		return fmt.Errorf("unknown command %s (try :help)", fields[0])
	}
}

func parseStrategy(name string) (core.Strategy, error) {
	switch strings.ToUpper(name) {
	case "BU":
		return core.BU, nil
	case "TD":
		return core.TD, nil
	case "BUWR":
		return core.BUWR, nil
	case "TDWR":
		return core.TDWR, nil
	case "SBH":
		return core.SBH, nil
	case "RE":
		return core.RE, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}

func loadDataset(dataset string, scale float64, seed int64) (*engine.Engine, error) {
	switch dataset {
	case "figure2":
		return figure2.Engine()
	case "dblife":
		return dblife.Generate(dblife.Config{Seed: seed, Scale: scale})
	default:
		script, err := os.ReadFile(dataset)
		if err != nil {
			return nil, fmt.Errorf("dataset %q is not figure2, dblife, or a readable script: %w", dataset, err)
		}
		return engine.Load(string(script))
	}
}

// obtainLattice loads the Phase 0 artifact from the cache file when present,
// generating (and saving) it otherwise.
func obtainLattice(eng *engine.Engine, c config) (*lattice.Lattice, error) {
	opts := lattice.Options{MaxJoins: c.maxJoins, KeywordSlots: c.slots}
	if c.cachePath != "" {
		if f, err := os.Open(c.cachePath); err == nil {
			defer f.Close()
			lat, err := lattice.Load(f, eng.Database().Schema())
			if err != nil {
				return nil, fmt.Errorf("cache %s: %w", c.cachePath, err)
			}
			if lat.MaxJoins() != c.maxJoins || lat.KeywordSlots() != c.slots {
				return nil, fmt.Errorf("cache %s was built with maxjoins=%d slots=%d",
					c.cachePath, lat.MaxJoins(), lat.KeywordSlots())
			}
			fmt.Fprintf(os.Stderr, "lattice loaded from %s\n", c.cachePath)
			return lat, nil
		}
	}
	lat, err := lattice.GenerateOpts(eng.Database().Schema(), opts)
	if err != nil {
		return nil, err
	}
	if c.cachePath != "" {
		f, err := os.Create(c.cachePath)
		if err != nil {
			return nil, fmt.Errorf("cache %s: %w", c.cachePath, err)
		}
		defer f.Close()
		if err := lat.Save(f); err != nil {
			return nil, fmt.Errorf("cache %s: %w", c.cachePath, err)
		}
		fmt.Fprintf(os.Stderr, "lattice saved to %s\n", c.cachePath)
	}
	return lat, nil
}
