package kwsbench

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"kwsdbg/internal/catalog"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/invidx"
	"kwsdbg/internal/storage"
)

// Kind is the endpoint a request goes to.
type Kind int

// The three request kinds the workloads send.
const (
	Debug  Kind = iota // GET /debug?q=
	Search             // GET /search?q=&k=10
	Write              // POST /write, one answer-preserving INSERT
)

func (k Kind) String() string {
	switch k {
	case Debug:
		return "debug"
	case Search:
		return "search"
	default:
		return "write"
	}
}

// Workload is one traffic mix. Every workload uses the level-5 lattice
// (MaxJoins 4, 3 keyword slots).
type Workload struct {
	Name string
	// Scale is the DBLife dataset scale factor.
	Scale float64
	// Read is the endpoint the workload's reads go to.
	Read Kind
	// LongTail draws reads Zipf-distributed from a pool of distinct
	// vocabulary queries instead of making passes over Q1-Q10.
	LongTail bool
	// WriteEvery makes every n-th timed request a write; 0 sends none.
	WriteEvery int
	// Warmup is the number of untimed requests before the window; 0 means
	// one pass over the query list.
	Warmup int
	// TracedPerSecond sets the traced run's request count: this many per
	// second of the -seconds flag, so traced counts repeat exactly.
	TracedPerSecond int
}

// Workloads lists the benchmark's traffic mixes.
var Workloads = []Workload{
	{
		// Q1-Q10 on /debug with every probe a verdict-cache hit: phases 1/2,
		// sublattice, assembly, encoding and HTTP carry the time
		Name:            "debug-warm",
		Scale:           0.02,
		Read:            Debug,
		TracedPerSecond: 30,
	},
	{
		// Zipf draws over 2,000 vocabulary queries at scale 0.2 overflow the
		// verdict and plan caches, so probes and plan compiles dominate
		Name:            "debug-longtail",
		Scale:           0.2,
		Read:            Debug,
		LongTail:        true,
		Warmup:          1000,
		TracedPerSecond: 20,
	},
	{
		// every 8th request is an answer-preserving INSERT, so cached verdicts
		// turn suspect and the next read rebuilds the inverted index
		Name:            "debug-writes",
		Scale:           0.02,
		Read:            Debug,
		WriteEvery:      8,
		TracedPerSecond: 30,
	},
	{
		// Q1-Q10 on /search enumerate rows (LIMIT 500 per candidate network)
		// instead of LIMIT-1 probes through the same engine and core
		Name:            "search",
		Scale:           0.02,
		Read:            Search,
		TracedPerSecond: 30,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

const (
	// poolSize is the number of distinct queries in the long-tail pool.
	poolSize = 2000
	// zipfS is the long-tail Zipf exponent.
	zipfS = 1.01
	// poolSeed draws the long-tail pool. It is fixed so that every seed
	// sends the same query mix: which queries sit at the head of the Zipf
	// ranking sets most of the workload's cost, and letting the seed pick
	// them would make run-to-run spread a property of the seed.
	poolSeed = 1
	// drawLen is how many reads and write targets are generated; longer
	// runs cycle through them.
	drawLen = 1 << 16
	// freshKeyBase keeps written keys clear of every generated key, so no
	// foreign key references a written row.
	freshKeyBase = 1_000_000_000
)

// Request is one generated request.
type Request struct {
	Kind Kind
	// Query indexes the plan's query list; -1 for writes.
	Query int
	// Table, Keyword and SQL describe a write.
	Table, Keyword, SQL string
}

// writeTarget is an entity table a keyword already binds to.
type writeTarget struct {
	table, keyword string
}

// Plan is a workload's request sequence for one seed and dataset. Position
// i of the sequence is the same request on every run with that seed.
type Plan struct {
	w       Workload
	queries [][]string
	// paths[q] is the read URL of query q.
	paths   []string
	order   []int
	targets []writeTarget
	schema  *catalog.Schema
	warmup  int
}

// newPlan generates the request sequence. The seed drives the order of
// each pass over Q1-Q10, the Zipf draws and the write targets; the data
// supplies the vocabulary and the keyword bindings.
func newPlan(w Workload, seed int64, eng *engine.Engine) *Plan {
	r := rand.New(rand.NewSource(seed))
	p := &Plan{w: w, schema: eng.Database().Schema()}
	if w.LongTail {
		p.queries = queryPool(rand.New(rand.NewSource(poolSeed)), vocabulary(eng.Database()), poolSize)
		z := rand.NewZipf(r, zipfS, 1, uint64(len(p.queries)-1))
		p.order = make([]int, drawLen)
		for i := range p.order {
			p.order[i] = int(z.Uint64())
		}
	} else {
		// Every pass sends each query once, in a seeded order.
		for _, q := range dblife.Workload() {
			p.queries = append(p.queries, q.Keywords)
		}
		for len(p.order) < drawLen {
			p.order = append(p.order, r.Perm(len(p.queries))...)
		}
	}
	p.warmup = w.Warmup
	if p.warmup == 0 {
		p.warmup = len(p.queries)
	}
	if w.WriteEvery > 0 {
		all := writeTargets(eng.Index(), p.queries)
		p.targets = make([]writeTarget, drawLen)
		for i := range p.targets {
			p.targets[i] = all[r.Intn(len(all))]
		}
	}
	for _, kws := range p.queries {
		v := url.Values{"q": {strings.Join(kws, " ")}}
		path := "/debug?"
		if w.Read == Search {
			path = "/search?"
			v.Set("k", "10")
		}
		p.paths = append(p.paths, path+v.Encode())
	}
	return p
}

// At returns request i of the sequence. The first Warmup positions are
// reads only; after them every WriteEvery-th request is a write.
func (p *Plan) At(i int) Request {
	j := i - p.warmup
	if e := p.w.WriteEvery; e > 0 && j >= 0 && j%e == e-1 {
		n := j / e
		t := p.targets[n%len(p.targets)]
		return Request{Kind: Write, Query: -1, Table: t.table, Keyword: t.keyword,
			SQL: insertSQL(p.schema, t, freshKeyBase+n)}
	}
	reads := i
	if e := p.w.WriteEvery; e > 0 && j > 0 {
		reads -= j / e
	}
	return Request{Kind: p.w.Read, Query: p.order[reads%len(p.order)]}
}

// Warmup is the number of untimed requests that precede the window.
func (p *Plan) Warmup() int { return p.warmup }

// Keywords returns query q's keywords.
func (p *Plan) Keywords(q int) []string { return p.queries[q] }

// vocabulary returns, sorted, the tokens that occur in at least two rows of
// the database's text columns.
func vocabulary(db *storage.Database) []string {
	rows := map[string]int{}
	for _, rel := range db.Schema().Relations() {
		cols := rel.TextColumns()
		tbl, ok := db.Table(rel.Name)
		if len(cols) == 0 || !ok {
			continue
		}
		idx := make([]int, len(cols))
		for i, c := range cols {
			idx[i] = rel.ColumnIndex(c)
		}
		tbl.Scan(func(_ storage.RowID, row storage.Row) bool {
			seen := map[string]bool{}
			for _, ci := range idx {
				for _, tok := range invidx.Tokenize(row[ci].S) {
					if !seen[tok] {
						seen[tok] = true
						rows[tok]++
					}
				}
			}
			return true
		})
	}
	var out []string
	for tok, n := range rows {
		if n >= 2 {
			out = append(out, tok)
		}
	}
	sort.Strings(out)
	return out
}

// queryPool draws n distinct 2-3-keyword queries from vocab. Queries that
// are permutations of one another count as one.
func queryPool(r *rand.Rand, vocab []string, n int) [][]string {
	seen := map[string]bool{}
	var out [][]string
	for len(out) < n {
		k := 2 + r.Intn(2)
		kws := make([]string, 0, k)
		for len(kws) < k {
			tok := vocab[r.Intn(len(vocab))]
			dup := false
			for _, have := range kws {
				dup = dup || have == tok
			}
			if !dup {
				kws = append(kws, tok)
			}
		}
		sorted := append([]string(nil), kws...)
		sort.Strings(sorted)
		if key := strings.Join(sorted, " "); !seen[key] {
			seen[key] = true
			out = append(out, kws)
		}
	}
	return out
}

// writeTargets lists, in a fixed order, every (table, keyword) pair where a
// query keyword already binds to the table.
func writeTargets(ix *invidx.Index, queries [][]string) []writeTarget {
	seen := map[string]bool{}
	var out []writeTarget
	for _, kws := range queries {
		for _, kw := range kws {
			if seen[kw] {
				continue
			}
			seen[kw] = true
			for _, t := range ix.Tables(kw) {
				out = append(out, writeTarget{table: t, keyword: kw})
			}
		}
	}
	return out
}

// insertSQL writes one row into t.table that carries t.keyword in every
// text column and the fresh key in every integer column. Keyword-bound
// tables are the entity tables, which hold no foreign keys, and nothing
// references the fresh key, so the row joins nothing: every answer,
// non-answer and MPAN stays as it was. The write still bumps the table and
// term versions, so cached verdicts turn suspect and the index rebuilds.
func insertSQL(schema *catalog.Schema, t writeTarget, key int) string {
	rel, _ := schema.Relation(t.table)
	vals := make([]string, len(rel.Columns))
	for i, c := range rel.Columns {
		if c.Type == catalog.Text {
			vals[i] = "'" + t.keyword + "'"
		} else {
			vals[i] = fmt.Sprint(key)
		}
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", t.table, strings.Join(vals, ", "))
}
