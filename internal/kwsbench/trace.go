package kwsbench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"kwsdbg/internal/core"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/report"
)

// LayerMetrics names the traced run's per-layer metrics in report order.
var LayerMetrics = []struct{ Name, Unit string }{
	{"server.request_us", "us"},
	{"server.other_us", "us"},
	{"server.resp_kb", "KiB"},
	{"server.write_us", "us"},
	{"core.debug_us", "us"},
	{"core.map_us", "us"},
	{"core.prune_us", "us"},
	{"core.mtn_us", "us"},
	{"core.sublattice_us", "us"},
	{"core.traverse_us", "us"},
	{"core.probe_us", "us"},
	{"core.sched_us", "us"},
	{"core.assemble_us", "us"},
	{"report.encode_us", "us"},
	{"core.pruned_nodes", "count/req"},
	{"core.mtns", "count/req"},
	{"core.sub_nodes", "count/req"},
	{"core.mpans", "count/req"},
	{"core.probes", "count/req"},
	{"core.sql_issued", "count/req"},
	{"core.inferred", "count/req"},
	{"probecache.hit_ratio", "ratio"},
	{"probecache.evictions", "count/req"},
	{"probecache.suspects", "count/req"},
	{"probecache.repairs", "count/req"},
	{"engine.plan_hit_ratio", "ratio"},
	{"engine.plan_compiles", "count/req"},
	{"engine.candset_hit_ratio", "ratio"},
	{"engine.sql_exec", "count/req"},
	{"engine.sql_us", "us/req"},
	{"engine.rows_scanned", "count/req"},
	{"bitprobe.hit_ratio", "ratio"},
	{"invidx.builds", "count/1k"},
	{"invidx.build_ms", "ms"},
	{"flight.events", "count/req"},
	{"runtime.alloc_kb", "KiB/req"},
	{"runtime.gc_per_1k", "count/1k"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// span is one timed region of a traced request. Times are nanoseconds from
// the start of the traced window. Spans the server reports only as a
// duration are laid end to end inside their parent, in pipeline order.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct{ spans []span }

// add records a span and returns its ID; parent -1 makes a root.
func (l *spanLog) add(req, parent int, name string, start, dur int64) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: start + dur})
	return id
}

// chain lays durs end to end from start as children of parent.
func (l *spanLog) chain(req, parent int, start int64, names []string, durs []int64) {
	for i, name := range names {
		l.add(req, parent, name, start, durs[i])
		start += durs[i]
	}
}

// covered returns how much of span id's interval its children cover, with
// each child clipped to the parent and overlaps counted once. A request's
// spans are logged together, each after its parent, so the children of a
// span are found among the spans that follow it with the same request.
func covered(spans []span, id int) int64 {
	p := spans[id]
	var iv [][2]int64
	for _, s := range spans[id+1:] {
		if s.Req != p.Req {
			break
		}
		if s.Parent != id {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = p.Start
	for _, v := range iv {
		if v[0] < end {
			v[0] = end
		}
		if v[1] > v[0] {
			total += v[1] - v[0]
			end = v[1]
		}
	}
	return total
}

// selfTime is span id's duration minus the part its children cover.
func selfTime(spans []span, id int) int64 { return spans[id].dur() - covered(spans, id) }

// coverage is the share of the named spans' summed duration that their
// children cover.
func coverage(spans []span, name string) float64 {
	var cov, total int64
	for _, s := range spans {
		if s.Name == name {
			cov += covered(spans, s.ID)
			total += s.dur()
		}
	}
	return ratio(float64(cov), float64(total))
}

// selfShares sums each span name's self time and divides it by the summed
// duration of the root spans: the share of the run each layer itself took.
func selfShares(spans []span) map[string]float64 {
	self := map[string]float64{}
	var total float64
	for _, s := range spans {
		self[s.Name] += float64(selfTime(spans, s.ID))
		if s.Parent < 0 {
			total += float64(s.dur())
		}
	}
	for name, v := range self {
		self[name] = ratio(v, total)
	}
	return self
}

func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer accumulates a traced run's per-request samples.
type tracer struct {
	lat   *lattice.Lattice
	sys   *core.System
	spans spanLog
	// vals holds per-request samples, timings in microseconds.
	vals map[string][]float64
}

func (t *tracer) sample(name string, v float64) { t.vals[name] = append(t.vals[name], v) }

func child(s *traceJSON, name string) *traceJSON {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return &traceJSON{}
}

// msNS converts a trace attribute or duration in milliseconds to ns.
func msNS(v any) int64 {
	f, _ := v.(float64)
	return int64(f * 1e6)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// debugLayers turns one traced /debug response into spans and samples. The
// server's trace supplies the debug, phase12 and phase3 durations; the
// sublattice build, output assembly and encoding are timed here, in
// process, on the same query and response.
func (t *tracer) debugLayers(req int, kws []string, body []byte, start, d int64) error {
	var dj debugJSON
	if err := json.Unmarshal(body, &dj); err != nil {
		return fmt.Errorf("decode traced response: %w", err)
	}
	if dj.Trace == nil {
		return fmt.Errorf("traced response for %v has no trace", kws)
	}
	root := dj.Trace
	p12, p3 := child(root, "phase12"), child(root, "phase3")
	debugNS, p12NS, p3NS := msNS(root.DurationMS), msNS(p12.DurationMS), msNS(p3.DurationMS)
	mapNS, pruneNS, mtnNS := msNS(p12.Attrs["map_ms"]), msNS(p12.Attrs["prune_ms"]), msNS(p12.Attrs["mtn_ms"])
	probeNS := msNS(p3.Attrs["sql_ms"])
	subNodes, _ := p3.Attrs["sub_nodes"].(float64)

	var subNS int64
	if dj.Stats.MTNs > 0 {
		s0 := time.Now()
		st, err := t.sys.Analyze(kws)
		if err != nil {
			return fmt.Errorf("analyze %v: %w", kws, err)
		}
		subNS = max(0, int64(time.Since(s0)-st.MapTime-st.PruneTime-st.MTNTime))
	}
	out, asmNS := assemble(t.lat, kws, &dj)
	e0 := time.Now()
	var buf bytes.Buffer
	if err := report.JSONOpts(&buf, out, report.JSONOptions{}); err != nil {
		return fmt.Errorf("encode %v: %w", kws, err)
	}
	encNS := int64(time.Since(e0))

	l := &t.spans
	reqID := l.add(req, -1, "server.request", start, d)
	dbg := l.add(req, reqID, "core.debug", start, debugNS)
	ph := l.add(req, dbg, "core.phase12", start, p12NS)
	l.chain(req, ph, start, []string{"core.map", "core.prune", "core.mtn"}, []int64{mapNS, pruneNS, mtnNS})
	at := start + p12NS
	l.add(req, dbg, "core.sublattice", at, subNS)
	at += subNS
	tr := l.add(req, dbg, "core.traverse", at, p3NS)
	l.add(req, tr, "core.probe", at, probeNS)
	l.add(req, dbg, "core.assemble", at+p3NS, asmNS)
	l.add(req, reqID, "report.encode", start+debugNS, encNS)

	t.sample("server.request_us", us(d))
	t.sample("server.other_us", us(selfTime(l.spans, reqID)))
	t.sample("server.resp_kb", float64(len(body))/1024)
	t.sample("core.debug_us", us(debugNS))
	t.sample("core.map_us", us(mapNS))
	t.sample("core.prune_us", us(pruneNS))
	t.sample("core.mtn_us", us(mtnNS))
	t.sample("core.sublattice_us", us(subNS))
	t.sample("core.traverse_us", us(p3NS))
	t.sample("core.probe_us", us(probeNS))
	t.sample("core.sched_us", us(max(0, p3NS-probeNS)))
	t.sample("core.assemble_us", us(asmNS))
	t.sample("report.encode_us", us(encNS))
	mpans := 0
	for _, na := range dj.NonAnswers {
		mpans += len(na.MPANs)
	}
	t.sample("core.pruned_nodes", float64(dj.Stats.PrunedNodes))
	t.sample("core.mtns", float64(dj.Stats.MTNs))
	t.sample("core.sub_nodes", subNodes)
	t.sample("core.mpans", float64(mpans))
	t.sample("core.probes", float64(dj.Stats.SQLExecuted))
	t.sample("core.sql_issued", float64(dj.Stats.SQLIssued))
	t.sample("core.inferred", float64(dj.Stats.Inferred))
	return nil
}

// assemble rebuilds the response's core.Output the way the debugger's
// output step does: one Lattice.SQL rendering and tree label per answer,
// non-answer and MPAN. It returns the Output and the time taken.
func assemble(lat *lattice.Lattice, kws []string, dj *debugJSON) (*core.Output, int64) {
	start := time.Now()
	info := func(q jsonNode) core.QueryInfo {
		n := lat.Node(q.Node)
		sql, err := lat.SQL(n, kws, false)
		if err != nil {
			sql = "-- " + err.Error()
		}
		return core.QueryInfo{NodeID: q.Node, Level: n.Level, Tree: n.String(), SQL: sql}
	}
	out := &core.Output{Keywords: kws, NonKeywords: dj.NonKeywords, Stats: core.Stats{
		Strategy:     core.SBH,
		LatticeNodes: lat.Len(),
		PrunedNodes:  dj.Stats.PrunedNodes,
		MTNs:         dj.Stats.MTNs,
		SQLExecuted:  dj.Stats.SQLExecuted,
		Inferred:     dj.Stats.Inferred,
		CacheHits:    dj.Stats.CacheHits,
		SQLTime:      time.Duration(dj.Stats.SQLMillis * float64(time.Millisecond)),
	}}
	for _, a := range dj.Answers {
		out.Answers = append(out.Answers, info(a))
	}
	for _, na := range dj.NonAnswers {
		dead := core.NonAnswer{Query: info(na.Query)}
		for _, p := range na.MPANs {
			dead.MPANs = append(dead.MPANs, info(p))
		}
		out.NonAnswers = append(out.NonAnswers, dead)
	}
	return out, int64(time.Since(start))
}

// runTraced replays the workload's request sequence with one client, twice
// on fresh environments: untraced, for the latency baseline, then with
// trace=1 on every /debug read. Per-layer timings are per-request medians;
// counts are per-request means of /metrics deltas over the traced window.
func runTraced(w Workload, cfg Config) (*Result, error) {
	n := cfg.Requests
	if n <= 0 {
		n = max(1, int(float64(w.TracedPerSecond)*cfg.Seconds))
	}
	res := &Result{Workload: w.Name, Host: CurrentHost(cfg.Seed), Trace: true}

	base, _, err := newSession(w, cfg)
	if err != nil {
		return nil, err
	}
	chk := base.chk
	warm := base.plan.Warmup()
	bl := newLoop(base.e.ts.URL, base.plan, chk, 1)
	bl.run(warm, time.Time{})
	untraced := bl.run(warm+n, time.Time{}).reads
	bl.close()
	base.close()

	s, _, err := newSession(w, cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.chk = chk
	url := s.e.ts.URL
	l := newLoop(url, s.plan, chk, 1)
	defer l.close()
	l.run(warm, time.Time{})
	c := l.callers[0]

	t := &tracer{lat: s.e.sys.Lattice(), sys: s.e.sys, vals: map[string][]float64{}}
	body, err := get(url, "/metrics")
	if err != nil {
		return nil, err
	}
	before := parseProm(body)
	var alloc, gcs uint64
	var m0, m1 runtime.MemStats
	var reads []float64
	writes := 0
	origin := time.Now()
	for i := warm; i < warm+n; i++ {
		req := s.plan.At(i)
		runtime.ReadMemStats(&m0)
		start := int64(time.Since(origin))
		status, body, d, err := c.do(req, true)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)
		chk.observe(req, status, body, err)
		if err != nil || status/100 != 2 {
			continue
		}
		switch req.Kind {
		case Write:
			writes++
			t.spans.add(i, -1, "server.write", start, int64(d))
			t.sample("server.write_us", us(int64(d)))
		case Search:
			reads = append(reads, float64(d)/float64(time.Millisecond))
			id := t.spans.add(i, -1, "server.request", start, int64(d))
			t.sample("server.request_us", us(int64(d)))
			t.sample("server.other_us", us(selfTime(t.spans.spans, id)))
			t.sample("server.resp_kb", float64(len(body))/1024)
		case Debug:
			reads = append(reads, float64(d)/float64(time.Millisecond))
			if err := t.debugLayers(i, s.plan.Keywords(req.Query), body, start, int64(d)); err != nil {
				return nil, err
			}
		}
	}
	if body, err = get(url, "/metrics"); err != nil {
		return nil, err
	}
	after := parseProm(body)

	refTime, err := s.finish(res, writes)
	if err != nil {
		return nil, err
	}
	res.info("requests", float64(n), "count")
	res.info("reads", float64(len(reads)), "count")
	res.info("reference_s", refTime.Seconds(), "s")
	shares := selfShares(t.spans.spans)
	names := make([]string, 0, len(shares))
	for name := range shares {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.info("self_share."+name, shares[name], "ratio")
	}

	perReq := func(v float64) float64 { return v / float64(n) }
	d := func(name string, matchers ...string) float64 { return delta(before, after, name, matchers...) }
	hits, misses := d("kwsdbg_probecache_hits_total"), d("kwsdbg_probecache_misses_total")
	planHits, planMisses := d("kwsdbg_plan_cache_hits_total"), d("kwsdbg_plan_cache_misses_total")
	candHits, candMisses := d("kwsdbg_candset_hits_total"), d("kwsdbg_candset_misses_total")
	bitHits, bitFallbacks := d("kwsdbg_bitset_probes_total"), d("kwsdbg_bitset_fallback_total")
	fromRun := map[string]float64{
		"probecache.hit_ratio":     ratio(hits, hits+misses),
		"probecache.evictions":     perReq(d("kwsdbg_probecache_evictions_total")),
		"probecache.suspects":      perReq(d("kwsdbg_probecache_suspects_total")),
		"probecache.repairs":       perReq(d("kwsdbg_probecache_repairs_total")),
		"engine.plan_hit_ratio":    ratio(planHits, planHits+planMisses),
		"engine.plan_compiles":     perReq(d("kwsdbg_plan_compiles_total")),
		"engine.candset_hit_ratio": ratio(candHits, candHits+candMisses),
		"engine.sql_exec":          perReq(d("kwsdbg_sql_exec_total")),
		"engine.sql_us":            perReq(d("kwsdbg_sql_seconds_sum") * 1e6),
		"engine.rows_scanned":      perReq(d("kwsdbg_sql_rows_scanned_total")),
		"bitprobe.hit_ratio":       ratio(bitHits, bitHits+bitFallbacks),
		"invidx.builds":            1000 * perReq(d("kwsdbg_invidx_builds_total")),
		"invidx.build_ms":          1000 * after.sum("kwsdbg_invidx_build_seconds"),
		"flight.events":            perReq(d("kwsdbg_flight_events_total")),
		"runtime.alloc_kb":         perReq(float64(alloc) / 1024),
		"runtime.gc_per_1k":        1000 * perReq(float64(gcs)),
		"trace.coverage":           coverage(t.spans.spans, "core.debug"),
		"trace.overhead":           ratio(median(reads), median(untraced)) - 1,
	}
	for _, m := range LayerMetrics {
		v, ok := fromRun[m.Name]
		switch {
		case ok:
		case m.Unit == "count/req":
			v = mean(t.vals[m.Name])
		default:
			v = median(t.vals[m.Name])
		}
		res.add(m.Name, v, m.Unit)
	}
	if cfg.SpansPath != "" {
		if err := t.spans.writeJSONL(cfg.SpansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return ratio(total, float64(len(xs)))
}
