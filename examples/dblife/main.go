// DBLife walkthrough: the paper's evaluation dataset and workload in one
// program. It generates the synthetic bibliography database, debugs the ten
// Table 2 queries, shows how a non-answer like "DeRose VLDB" becomes
// answerable when the lattice allows more joins (the paper's §3.2
// observation about Q4/Q6), and compares the SQL effort of all five
// traversal strategies on a three-keyword query.
//
// Run with: go run ./examples/dblife
package main

import (
	"fmt"
	"log"
	"strings"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/lattice"
)

func main() {
	eng, err := dblife.Generate(dblife.Config{Seed: 1, Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic DBLife: %d tuples in 14 tables\n\n", eng.Database().TotalRows())

	sys3, err := core.Build(eng, lattice.Options{MaxJoins: 2, KeywordSlots: 3})
	if err != nil {
		log.Fatal(err)
	}
	sys5, err := core.Build(eng, lattice.Options{MaxJoins: 4, KeywordSlots: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== workload at lattice levels 3 and 5 ===")
	fmt.Printf("%-5s %-32s %10s %10s %10s %10s\n",
		"query", "keywords", "alive@L3", "dead@L3", "alive@L5", "dead@L5")
	for _, q := range dblife.Workload() {
		o3, err := sys3.Debug(q.Keywords, core.Options{Strategy: core.SBH})
		if err != nil {
			log.Fatal(err)
		}
		o5, err := sys5.Debug(q.Keywords, core.Options{Strategy: core.SBH})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %-32s %10d %10d %10d %10d\n",
			q.ID, strings.Join(q.Keywords, " "), len(o3.Answers), len(o3.NonAnswers),
			len(o5.Answers), len(o5.NonAnswers))
	}

	fmt.Println("\n=== explaining a non-answer: DeRose VLDB at level 3 ===")
	out, err := sys3.Debug([]string{"DeRose", "VLDB"}, core.Options{Strategy: core.SBH})
	if err != nil {
		log.Fatal(err)
	}
	for _, na := range out.NonAnswers {
		fmt.Printf("DEAD %s\n", na.Query.Tree)
		for _, p := range na.MPANs {
			fmt.Printf("     alive up to: %s\n", p.Tree)
		}
	}
	fmt.Println("\nat level 5 the coauthor path connects them:")
	out, err = sys5.Debug([]string{"DeRose", "VLDB"}, core.Options{Strategy: core.SBH})
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range out.Answers {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(out.Answers)-5)
			break
		}
		fmt.Printf("  ALIVE %s\n", a.Tree)
	}

	fmt.Println("\n=== strategy comparison on Q3 (Agrawal Chaudhuri Das) at level 5 ===")
	fmt.Printf("%-8s %12s %14s %12s\n", "strategy", "SQL probes", "inferred free", "sql time")
	for _, strat := range core.Strategies {
		o, err := sys5.Debug([]string{"Agrawal", "Chaudhuri", "Das"}, core.Options{Strategy: strat})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8v %12d %14d %12v\n", strat, o.Stats.SQLExecuted, o.Stats.Inferred, o.Stats.SQLTime)
	}

	// Ranked presentation of an answer-rich query: fewer joins first, more
	// result tuples first within a join count.
	fmt.Println("\n=== ranked answers for 'Probabilistic Data' at level 5 ===")
	out, err = sys5.Debug([]string{"Probabilistic", "Data"}, core.Options{Strategy: core.SBH})
	if err != nil {
		log.Fatal(err)
	}
	ranked, err := sys5.RankAnswers(out)
	if err != nil {
		log.Fatal(err)
	}
	for i, ra := range ranked {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(ranked)-5)
			break
		}
		fmt.Printf("  %4d results  %s\n", ra.Results, ra.Query.Tree)
	}

	// Interactive what-if: pin the dead "serves" interpretation of
	// "DeRose VLDB" alive and watch the hypothetical output change without
	// a single extra SQL probe.
	fmt.Println("\n=== what-if session: assume DeRose served on the VLDB PC ===")
	sess, err := sys3.NewSession([]string{"DeRose", "VLDB"})
	if err != nil {
		log.Fatal(err)
	}
	base, err := sess.Run(core.Options{Strategy: core.SBH})
	if err != nil {
		log.Fatal(err)
	}
	if len(base.NonAnswers) > 0 {
		target := base.NonAnswers[0].Query
		sess.Pin(target.NodeID, true)
		whatIf, err := sess.Run(core.Options{Strategy: core.SBH})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  pinned %s alive: %d answers (was %d), %d extra probes\n",
			target.Tree, len(whatIf.Answers), len(base.Answers), whatIf.Stats.SQLIssued())
	}
}
