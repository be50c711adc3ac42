package flight

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file is the analysis half of the recorder: it turns a loaded ledger
// into per-probe event chains and answers the three triage questions kwstrace
// exposes — what happened (summary), where the time went (slow), and what
// changed between a good and a bad run (diff). It lives here rather than in
// cmd/kwstrace so servers and tests can call the same logic the CLI renders.

// ProbeStat is one lattice node's aggregated event chain within a run.
type ProbeStat struct {
	// Node is the lattice node ID the chain is keyed by.
	Node int32
	// Key is the cross-request probe-cache key, when any event carried it.
	// It is the identity used to match probes across two runs, because node
	// IDs are lattice-local while the key is structural.
	Key string
	// Events is the node's chain in sequence order.
	Events []Event

	CacheHits   int
	CacheMisses int
	SQLExecs    int
	Replans     int
	Retries     int
	// Suspects counts cached dead verdicts a write downgraded; Repairs how
	// many of this probe's re-executions restored a verdict for one.
	Suspects int
	Repairs  int
	// SQLTime is the summed measured latency of the node's SQLExec events.
	SQLTime time.Duration
	// Alive is the verdict of the node's last outcome event (ProbeCacheHit
	// or SQLExec); meaningful when CacheHits+SQLExecs > 0.
	Alive bool
}

// Identity is the cross-run matching key: the probe key when known, else a
// node-scoped fallback.
func (p *ProbeStat) Identity() string {
	if p.Key != "" {
		return p.Key
	}
	return fmt.Sprintf("node:%d", p.Node)
}

// Analysis is a digested run: per-probe chains plus run-level aggregates.
type Analysis struct {
	Ledger *Ledger
	// Probes holds one entry per probed lattice node, in first-activity
	// order.
	Probes []*ProbeStat
	// KindCounts tallies every event by kind (indexed by Kind).
	KindCounts [numKinds]int
	// CandSetHits/Misses are the run's candidate-set cache counts, from the
	// ledger's summary record (zero without one).
	CandSetHits   int
	CandSetMisses int
	// TotalSQL is the summed latency of all SQLExec events.
	TotalSQL time.Duration
	// Exhausted is the governor's trip cause, "" if the run completed.
	Exhausted string
	// Shed marks a run refused at admission.
	Shed bool
}

// Analyze groups a ledger's event stream into per-probe chains.
func Analyze(led *Ledger) *Analysis {
	a := &Analysis{Ledger: led}
	if s := led.Summary; s != nil {
		a.CandSetHits, a.CandSetMisses = s.CandSetHits, s.CandSetMisses
	}
	byNode := make(map[int32]*ProbeStat)
	for _, ev := range led.Events {
		if int(ev.Kind) < len(a.KindCounts) {
			a.KindCounts[ev.Kind]++
		}
		switch ev.Kind {
		case Exhausted:
			a.Exhausted = ev.Cause
			continue
		case Shed:
			a.Shed = true
			continue
		default:
			// Every other kind is a per-probe event, handled below.
		}
		if ev.Node < 0 {
			continue
		}
		ps := byNode[ev.Node]
		if ps == nil {
			ps = &ProbeStat{Node: ev.Node}
			byNode[ev.Node] = ps
			a.Probes = append(a.Probes, ps)
		}
		ps.Events = append(ps.Events, ev)
		if ps.Key == "" && ev.Probe != "" {
			ps.Key = ev.Probe
		}
		switch ev.Kind {
		case ProbeCacheHit:
			ps.CacheHits++
			ps.Alive = ev.Alive
		case ProbeCacheMiss:
			ps.CacheMisses++
		case SQLExec:
			ps.SQLExecs++
			ps.SQLTime += ev.Dur
			a.TotalSQL += ev.Dur
			ps.Alive = ev.Alive
		case Replan:
			ps.Replans++
		case Retry:
			ps.Retries++
		case Suspect:
			ps.Suspects++
		case Repair:
			ps.Repairs++
		case KindUnknown, Shed, Exhausted:
			// Run-level kinds were consumed by the first switch; KindUnknown
			// (kinds this build does not know, among them the retired
			// admit, budget_charged, verdict, candset_hit, candset_miss,
			// plan_reuse, bitset_hit and bitset_fallback) carries no
			// per-probe statistic. Listed so the eventkind analyzer proves
			// this switch exhaustive: a new Kind fails lint here until its
			// per-probe handling is decided.
		}
	}
	return a
}

// Slowest returns up to top probes ordered by descending SQL time (ties by
// identity, so the order is stable).
func (a *Analysis) Slowest(top int) []*ProbeStat {
	out := make([]*ProbeStat, len(a.Probes))
	copy(out, a.Probes)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SQLTime != out[j].SQLTime {
			return out[i].SQLTime > out[j].SQLTime
		}
		return out[i].Identity() < out[j].Identity()
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// RenderSummary writes the human form of one run: the summary record when the
// ledger has one, then the event-kind tallies and cache accounting.
func (a *Analysis) RenderSummary(w io.Writer) {
	if s := a.Ledger.Summary; s != nil {
		fmt.Fprintf(w, "run %s: keywords=%s strategy=%s workers=%d data_version=%d\n",
			s.Req, strings.Join(s.Keywords, ","), s.Strategy, s.Workers, s.DataVersion)
		fmt.Fprintf(w, "  phases: map=%.3fms prune=%.3fms mtn=%.3fms traverse=%.3fms\n",
			s.MapMS, s.PruneMS, s.MTNMS, s.TraverseMS)
		fmt.Fprintf(w, "  probes=%d cache_hits=%d (%.0f%%) sql_issued=%d sql=%.3fms\n",
			s.Probes, s.CacheHits, 100*s.CacheHitRate(), s.SQLIssued, s.SQLMS)
		fmt.Fprintf(w, "  answers=%d non_answers=%d", s.Answers, s.NonAnswers)
		if s.Incomplete {
			fmt.Fprintf(w, " INCOMPLETE(%s)", s.IncompleteReason)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  events=%d probed_nodes=%d total_sql=%v candset_hits=%d candset_misses=%d\n",
		len(a.Ledger.Events), len(a.Probes), a.TotalSQL, a.CandSetHits, a.CandSetMisses)
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		if a.KindCounts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, a.KindCounts[k]))
		}
	}
	fmt.Fprintf(w, "  by kind: %s\n", strings.Join(parts, " "))
	if a.Exhausted != "" {
		fmt.Fprintf(w, "  budget exhausted: %s\n", a.Exhausted)
	}
}

// RenderSlow writes the top-N slowest probes with their full event chains.
func (a *Analysis) RenderSlow(w io.Writer, top int) {
	for _, ps := range a.Slowest(top) {
		fmt.Fprintf(w, "%v  node=%d  %s\n", ps.SQLTime, ps.Node, shortKey(ps.Key))
		for _, ev := range ps.Events {
			fmt.Fprintf(w, "    #%d %s%s\n", ev.Seq, ev.Kind, eventDetail(ev))
		}
	}
}

func eventDetail(ev Event) string {
	var sb strings.Builder
	if ev.Cause != "" {
		fmt.Fprintf(&sb, " cause=%s", ev.Cause)
	}
	if ev.Kind == SQLExec {
		fmt.Fprintf(&sb, " dur=%v alive=%t", ev.Dur, ev.Alive)
	}
	if ev.Kind == ProbeCacheHit || ev.Kind == Repair {
		fmt.Fprintf(&sb, " alive=%t", ev.Alive)
	}
	return sb.String()
}

// shortKey elides the middle of long probe keys for terminal output and
// renders the key's NUL binding separators visibly.
func shortKey(k string) string {
	k = strings.ReplaceAll(k, "\x00", "·")
	if len(k) > 96 {
		k = k[:60] + "…" + k[len(k)-35:]
	}
	return k
}

// DiffEntry is one probe whose behavior changed between run A (baseline) and
// run B (regressed).
type DiffEntry struct {
	Key          string
	ANode, BNode int32
	ASQL, BSQL   time.Duration
	// OnlyIn marks a probe present in just one run ("a" or "b", "" when in
	// both).
	OnlyIn string
	// NewlyMissed / NewlyReplanned / NewlyRetried mark probes that did more
	// cache missing (or hit the cache less) / replanning / retrying in B
	// than in A — the causal suspects for B's extra SQL time.
	NewlyMissed    bool
	NewlyReplanned bool
	NewlyRetried   bool
	// NewlyRepaired marks probes whose extra work in B was verdict repair:
	// a write suspected their cached dead verdict and B re-proved it. Their
	// SQL time is correctness spend, not a cache regression.
	NewlyRepaired bool
}

// Delta is the probe's SQL-time change (B minus A).
func (e *DiffEntry) Delta() time.Duration { return e.BSQL - e.ASQL }

// changed reports whether the entry is worth listing.
func (e *DiffEntry) changed() bool {
	return e.OnlyIn != "" || e.NewlyMissed || e.NewlyReplanned || e.NewlyRetried ||
		e.NewlyRepaired || e.ASQL != e.BSQL
}

// DiffResult is the causal comparison of two runs of the same query.
type DiffResult struct {
	A, B *Analysis
	// Entries lists changed probes, largest absolute SQL-time delta first.
	Entries []DiffEntry
	// SQLDelta is B's total SQL time minus A's.
	SQLDelta time.Duration
	// Explained is the part of SQLDelta attributable to probes that newly
	// missed a cache, replanned, retried, or only exist in B — the answer
	// to "where did the extra time come from".
	Explained time.Duration
	// NewlyMissed / NewlyReplanned / NewlyRetried / NewlyRepaired count the
	// flagged probes.
	NewlyMissed    int
	NewlyReplanned int
	NewlyRetried   int
	NewlyRepaired  int
	// RepairedSQL is the part of Explained spent re-proving suspected
	// verdicts — expected spend under write churn, not a regression.
	RepairedSQL time.Duration
}

// Diff matches the two runs' probes by identity (probe key, falling back to
// node ID) and attributes the SQL-time delta.
func Diff(a, b *Analysis) *DiffResult {
	d := &DiffResult{A: a, B: b, SQLDelta: b.TotalSQL - a.TotalSQL}
	aBy := make(map[string]*ProbeStat, len(a.Probes))
	for _, ps := range a.Probes {
		aBy[ps.Identity()] = ps
	}
	bBy := make(map[string]*ProbeStat, len(b.Probes))
	for _, ps := range b.Probes {
		bBy[ps.Identity()] = ps
	}

	// Walk A's probes in run order, then B-only probes in run order: the
	// iteration is over slices, so the result is deterministic.
	for _, pa := range a.Probes {
		id := pa.Identity()
		pb := bBy[id]
		e := DiffEntry{Key: id, ANode: pa.Node, BNode: -1, ASQL: pa.SQLTime}
		if pb == nil {
			e.OnlyIn = "a"
		} else {
			e.BNode = pb.Node
			e.BSQL = pb.SQLTime
			e.NewlyRepaired = pb.Repairs > pa.Repairs
			// A run with the cache bypassed records no misses, only lost
			// hits; a hit lost to a repair is attributed to the repair.
			e.NewlyMissed = pb.CacheMisses > pa.CacheMisses ||
				(pb.CacheHits < pa.CacheHits && !e.NewlyRepaired)
			e.NewlyReplanned = pb.Replans > pa.Replans
			e.NewlyRetried = pb.Retries > pa.Retries
		}
		d.add(e)
	}
	for _, pb := range b.Probes {
		id := pb.Identity()
		if _, inA := aBy[id]; inA {
			continue
		}
		// A probe only B ran: everything it did is new, so its misses,
		// replans, and retries are all "newly".
		d.add(DiffEntry{
			Key: id, ANode: -1, BNode: pb.Node, BSQL: pb.SQLTime, OnlyIn: "b",
			NewlyMissed:    pb.CacheMisses > 0,
			NewlyReplanned: pb.Replans > 0,
			NewlyRetried:   pb.Retries > 0,
			NewlyRepaired:  pb.Repairs > 0,
		})
	}

	sort.SliceStable(d.Entries, func(i, j int) bool {
		di, dj := absDur(d.Entries[i].Delta()), absDur(d.Entries[j].Delta())
		if di != dj {
			return di > dj
		}
		return d.Entries[i].Key < d.Entries[j].Key
	})
	return d
}

func (d *DiffResult) add(e DiffEntry) {
	if !e.changed() {
		return
	}
	if e.NewlyMissed {
		d.NewlyMissed++
	}
	if e.NewlyReplanned {
		d.NewlyReplanned++
	}
	if e.NewlyRetried {
		d.NewlyRetried++
	}
	if e.NewlyRepaired {
		d.NewlyRepaired++
		d.RepairedSQL += e.Delta()
	}
	if e.NewlyMissed || e.NewlyReplanned || e.NewlyRetried || e.NewlyRepaired ||
		e.OnlyIn == "b" {
		d.Explained += e.Delta()
	}
	d.Entries = append(d.Entries, e)
}

// signedDur renders a delta with an explicit sign so diffs read as changes.
func signedDur(d time.Duration) string {
	if d >= 0 {
		return "+" + d.String()
	}
	return d.String()
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// RenderDiff writes the triage view: the aggregate delta and how much of it
// the flagged probes explain, then the changed probes themselves.
func (d *DiffResult) RenderDiff(w io.Writer, aLabel, bLabel string, top int) {
	fmt.Fprintf(w, "A = %s  (sql %v, %d probed nodes)\n", aLabel, d.A.TotalSQL, len(d.A.Probes))
	fmt.Fprintf(w, "B = %s  (sql %v, %d probed nodes)\n", bLabel, d.B.TotalSQL, len(d.B.Probes))
	fmt.Fprintf(w, "sql delta (B-A): %v; explained by newly-missed/replanned/retried/new probes: %v",
		d.SQLDelta, d.Explained)
	if d.SQLDelta > 0 {
		fmt.Fprintf(w, " (%.0f%%)", 100*float64(d.Explained)/float64(d.SQLDelta))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "newly missed cache: %d probes; newly replanned: %d; newly retried: %d\n",
		d.NewlyMissed, d.NewlyReplanned, d.NewlyRetried)
	if d.NewlyRepaired > 0 {
		fmt.Fprintf(w, "verdict repairs: %d probes re-proved after writes suspected their cached verdicts (%v of the delta is repair spend, not regression)\n",
			d.NewlyRepaired, signedDur(d.RepairedSQL))
	}
	n := 0
	for i := range d.Entries {
		e := &d.Entries[i]
		if top > 0 && n >= top {
			fmt.Fprintf(w, "... and %d more changed probes\n", len(d.Entries)-n)
			break
		}
		n++
		var flags []string
		if e.NewlyMissed {
			flags = append(flags, "newly-missed")
		}
		if e.NewlyReplanned {
			flags = append(flags, "newly-replanned")
		}
		if e.NewlyRetried {
			flags = append(flags, "newly-retried")
		}
		if e.NewlyRepaired {
			flags = append(flags, "repaired")
		}
		if e.OnlyIn != "" {
			flags = append(flags, "only-in-"+e.OnlyIn)
		}
		tag := ""
		if len(flags) > 0 {
			tag = "  [" + strings.Join(flags, " ") + "]"
		}
		fmt.Fprintf(w, "  %s  %s%s\n", signedDur(e.Delta()), shortKey(e.Key), tag)
	}
}
