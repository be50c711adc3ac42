package kwsbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"kwsdbg/internal/core"
)

// debugForm is what a /debug response must agree on with the reference:
// the answer, non-answer and per-non-answer MPAN node sets.
type debugForm struct {
	NonKeywords []string
	Answers     []int
	NonAnswers  map[int][]int
}

// normalize sorts the node sets so equal classifications compare equal.
func (f *debugForm) normalize() {
	if len(f.NonKeywords) == 0 {
		f.NonKeywords = nil
	}
	sort.Ints(f.Answers)
	if f.NonAnswers == nil {
		f.NonAnswers = map[int][]int{}
	}
	for _, m := range f.NonAnswers {
		sort.Ints(m)
	}
}

// outputForm extracts the checked node sets from a core.Output.
func outputForm(out *core.Output) debugForm {
	f := debugForm{NonKeywords: out.NonKeywords, NonAnswers: map[int][]int{}}
	for _, a := range out.Answers {
		f.Answers = append(f.Answers, a.NodeID)
	}
	for _, na := range out.NonAnswers {
		m := []int{}
		for _, p := range na.MPANs {
			m = append(m, p.NodeID)
		}
		f.NonAnswers[na.Query.NodeID] = m
	}
	f.normalize()
	return f
}

// jsonNode is one reported query of the /debug schema.
type jsonNode struct {
	Node int `json:"node"`
}

// debugJSON is the part of the /debug response schema the benchmark reads.
type debugJSON struct {
	NonKeywords []string   `json:"non_keywords"`
	Answers     []jsonNode `json:"answers"`
	NonAnswers  []struct {
		Query jsonNode   `json:"query"`
		MPANs []jsonNode `json:"mpans"`
	} `json:"non_answers"`
	Incomplete bool `json:"incomplete"`
	Stats      struct {
		PrunedNodes int     `json:"pruned_nodes"`
		MTNs        int     `json:"mtns"`
		SQLExecuted int     `json:"sql_executed"`
		Inferred    int     `json:"inferred"`
		CacheHits   int     `json:"cache_hits"`
		SQLIssued   int     `json:"sql_issued"`
		SQLMillis   float64 `json:"sql_ms"`
	} `json:"stats"`
	Trace *traceJSON `json:"trace"`
}

// traceJSON is the span tree /debug?trace=1 embeds.
type traceJSON struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*traceJSON   `json:"children"`
}

func (d *debugJSON) form() debugForm {
	f := debugForm{NonKeywords: d.NonKeywords, NonAnswers: map[int][]int{}}
	for _, a := range d.Answers {
		f.Answers = append(f.Answers, a.Node)
	}
	for _, na := range d.NonAnswers {
		m := []int{}
		for _, p := range na.MPANs {
			m = append(m, p.Node)
		}
		f.NonAnswers[na.Query.Node] = m
	}
	f.normalize()
	return f
}

// searchForm mirrors the /search response schema; a response must equal
// the reference field for field.
type searchForm struct {
	Keywords []string       `json:"keywords"`
	Missing  []string       `json:"missing,omitempty"`
	Results  []searchRow    `json:"results"`
	Partials []searchRowCov `json:"partials,omitempty"`
}

type searchRow struct {
	Score float64           `json:"score"`
	Tree  string            `json:"tree"`
	Tuple map[string]string `json:"tuple"`
}

type searchRowCov struct {
	Covered []string `json:"covered"`
	searchRow
}

// debugReference classifies a query on the repository's reference oracle:
// the rendered-SQL text path with the verdict cache bypassed.
func debugReference(sys *core.System, kws []string) (debugForm, error) {
	out, err := sys.Debug(kws, core.Options{Strategy: core.SBH, TextProbes: true, BypassCache: true, Workers: 1})
	if err != nil {
		return debugForm{}, fmt.Errorf("reference debug %v: %w", kws, err)
	}
	if out.Incomplete {
		return debugForm{}, fmt.Errorf("reference debug %v: incomplete (%s)", kws, out.IncompleteReason)
	}
	return outputForm(out), nil
}

// searchReference runs SearchPartial on ref, a System with no verdict
// cache, and renders the result in the /search schema.
func searchReference(ref *core.System, kws []string, k int) (searchForm, error) {
	full, partial, missing, err := ref.SearchPartial(kws, k)
	if err != nil {
		return searchForm{}, fmt.Errorf("reference search %v: %w", kws, err)
	}
	row := func(r core.SearchResult) searchRow {
		t := make(map[string]string, len(r.Tuple))
		for i, v := range r.Tuple {
			t[r.Columns[i]] = v.String()
		}
		return searchRow{Score: r.Score, Tree: r.Query.Tree, Tuple: t}
	}
	f := searchForm{Keywords: kws, Missing: missing, Results: []searchRow{}}
	for _, r := range full {
		f.Results = append(f.Results, row(r))
	}
	for _, p := range partial {
		f.Partials = append(f.Partials, searchRowCov{Covered: p.Covered, searchRow: row(p.SearchResult)})
	}
	// A JSON round trip gives the reference the same nil/empty shapes a
	// decoded response has.
	b, err := json.Marshal(f)
	if err != nil {
		return searchForm{}, err
	}
	var rt searchForm
	return rt, json.Unmarshal(b, &rt)
}

// references computes the reference of every listed query, spread over
// GOMAXPROCS goroutines.
func references(queries []int, ref func(q int) (any, error)) (map[int]any, error) {
	out := make(map[int]any, len(queries))
	var mu sync.Mutex
	var firstErr error
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				r, err := ref(q)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[q] = r
				mu.Unlock()
			}
		}()
	}
	for _, q := range queries {
		next <- q
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// formKey identifies one distinct response body for a query.
type formKey struct {
	query int
	hash  uint64
}

// formEntry is one distinct response: its decoded form and how many
// responses carried it.
type formEntry struct {
	form  any
	count int
}

// checker counts requests and failures. Responses are checked by content:
// each distinct body (the /debug stats and trace excluded) is decoded once,
// and after the run every distinct form is compared with its query's
// reference, so checking costs the timed window little.
type checker struct {
	seed maphash.Seed

	mu        sync.Mutex
	attempted int
	failed    int
	forms     map[formKey]*formEntry
	// errs keeps the first few failure messages for the report.
	errs []string
}

func newChecker() *checker {
	return &checker{seed: maphash.MakeSeed(), forms: map[formKey]*formEntry{}}
}

const maxErrs = 5

func (c *checker) failLocked(n int, msg string) {
	c.failed += n
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, msg)
	}
}

// statsKey starts the /debug response's stats object, which (with the trace
// after it) varies with cache state rather than with the classification.
var statsKey = []byte("\n  \"stats\": ")

// observe checks one response. err is the transport error, if any.
func (c *checker) observe(req Request, status int, body []byte, err error) {
	var key formKey
	if err == nil && status/100 == 2 && req.Kind != Write {
		content := body
		if req.Kind == Debug {
			if i := bytes.Index(body, statsKey); i >= 0 {
				content = body[:i]
			}
		}
		key = formKey{query: req.Query, hash: maphash.Bytes(c.seed, content)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	switch {
	case err != nil:
		c.failLocked(1, fmt.Sprintf("%s: %v", req.Kind, err))
		return
	case status/100 != 2:
		c.failLocked(1, fmt.Sprintf("%s: status %d: %.200s", req.Kind, status, body))
		return
	case req.Kind == Write:
		var w struct {
			Rows int `json:"rows_inserted"`
		}
		if err := json.Unmarshal(body, &w); err != nil || w.Rows != 1 {
			c.failLocked(1, fmt.Sprintf("write %q: %.200s", req.SQL, body))
		}
		return
	}
	if e := c.forms[key]; e != nil {
		e.count++
		return
	}
	e := &formEntry{count: 1}
	switch req.Kind {
	case Debug:
		var d debugJSON
		if err := json.Unmarshal(body, &d); err != nil {
			e.form = fmt.Errorf("decode debug response: %w", err)
		} else if d.Incomplete {
			e.form = fmt.Errorf("incomplete debug response")
		} else {
			e.form = d.form()
		}
	case Search:
		var s searchForm
		if err := json.Unmarshal(body, &s); err != nil {
			e.form = fmt.Errorf("decode search response: %w", err)
		} else {
			e.form = s
		}
	}
	c.forms[key] = e
}

// queries lists the distinct queries that returned a well-formed response.
func (c *checker) queries() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[int]bool{}
	var out []int
	for k := range c.forms {
		if !seen[k.query] {
			seen[k.query] = true
			out = append(out, k.query)
		}
	}
	sort.Ints(out)
	return out
}

// verify compares every distinct response with its query's reference and
// counts each response that differs as failed.
func (c *checker) verify(refs map[int]any, label func(q int) string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]formKey, 0, len(c.forms))
	for k := range c.forms {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].query != keys[j].query {
			return keys[i].query < keys[j].query
		}
		return keys[i].hash < keys[j].hash
	})
	for _, k := range keys {
		e := c.forms[k]
		if err, bad := e.form.(error); bad {
			c.failLocked(e.count, fmt.Sprintf("%s: %v", label(k.query), err))
			continue
		}
		if ref, ok := refs[k.query]; !ok || !reflect.DeepEqual(e.form, ref) {
			c.failLocked(e.count, fmt.Sprintf("%s: response differs from the reference", label(k.query)))
		}
	}
}
