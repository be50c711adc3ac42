package flight

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if got := ParseKind(name); got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", name, got, k)
		}
	}
	if got := ParseKind("from-the-future"); got != KindUnknown {
		t.Errorf("ParseKind(unknown) = %v, want KindUnknown", got)
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Errorf("Kind(200).String() = %q, want unknown", got)
	}
}

func TestNilLogIsSafeAndFree(t *testing.T) {
	var l *Log
	l.Emit(SQLExec, 3, "k", true, time.Millisecond, "")
	if l.Events() != nil || l.Count() != 0 || l.Req() != "" {
		t.Fatal("nil log should observe nothing")
	}
	// The recording-off path must cost a nil check and nothing else: the
	// acceptance criterion is zero allocations per event.
	allocs := testing.AllocsPerRun(1000, func() {
		l.Emit(Admit, 1, "key", false, 0, "")
	})
	if allocs != 0 {
		t.Errorf("nil Log.Emit allocates %v times per event, want 0", allocs)
	}
}

func TestRecordingEmitDoesNotAllocate(t *testing.T) {
	rec := NewRecorder(64)
	l := NewLog(rec, "req-1", false)
	allocs := testing.AllocsPerRun(1000, func() {
		l.Emit(SQLExec, 7, "probe-key", true, time.Millisecond, "")
	})
	if allocs != 0 {
		t.Errorf("ring Log.Emit allocates %v times per event, want 0", allocs)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	rec := NewRecorder(4) // power of two already
	l := NewLog(rec, "r", false)
	for i := 0; i < 10; i++ {
		l.Emit(Admit, i, "", false, 0, "")
	}
	evs := rec.Snapshot("")
	if len(evs) != 4 {
		t.Fatalf("snapshot has %d events, want ring size 4", len(evs))
	}
	// The ring must retain exactly the newest four (seq 7..10), in order.
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
		if want := int32(6 + i); ev.Node != want {
			t.Errorf("event %d has node %d, want %d", i, ev.Node, want)
		}
	}
}

func TestRingSizeRoundsUp(t *testing.T) {
	rec := NewRecorder(5)
	if len(rec.ring) != 8 {
		t.Errorf("NewRecorder(5) has %d slots, want 8", len(rec.ring))
	}
	if def := NewRecorder(0); len(def.ring) != DefaultRingSize {
		t.Errorf("NewRecorder(0) has %d slots, want %d", len(def.ring), DefaultRingSize)
	}
}

// TestSnapshotEveryWrapOffset fills a small ring to every wrap offset: the
// snapshot must hold the newest ring-size events (all of them before the
// ring first fills), oldest first, whichever slot the next write lands in.
func TestSnapshotEveryWrapOffset(t *testing.T) {
	const size = 8
	for total := 0; total <= 3*size; total++ {
		rec := NewRecorder(size)
		l := NewLog(rec, "r", false)
		for i := 0; i < total; i++ {
			l.Emit(Admit, i, "", false, 0, "")
		}
		evs := rec.Snapshot("")
		if want := min(total, size); len(evs) != want {
			t.Fatalf("after %d events: snapshot has %d, want %d", total, len(evs), want)
		}
		for i, ev := range evs {
			seq := uint64(total - len(evs) + i + 1)
			if ev.Seq != seq || ev.Node != int32(seq-1) {
				t.Fatalf("after %d events: snapshot[%d] = seq %d node %d, want seq %d node %d",
					total, i, ev.Seq, ev.Node, seq, seq-1)
			}
		}
	}
}

func TestSnapshotFiltersByRequest(t *testing.T) {
	rec := NewRecorder(64)
	a := NewLog(rec, "a", false)
	b := NewLog(rec, "b", false)
	a.Emit(Admit, 1, "", false, 0, "")
	b.Emit(Admit, 2, "", false, 0, "")
	a.Emit(Verdict, 1, "", true, 0, "")
	got := rec.Snapshot("a")
	if len(got) != 2 {
		t.Fatalf("Snapshot(a) = %d events, want 2", len(got))
	}
	for _, ev := range got {
		if ev.Req != "a" {
			t.Errorf("Snapshot(a) returned event for %q", ev.Req)
		}
	}
	if all := rec.Snapshot(""); len(all) != 3 {
		t.Errorf("Snapshot(\"\") = %d events, want 3", len(all))
	}
}

func TestCaptureSurvivesRingWrap(t *testing.T) {
	rec := NewRecorder(4)
	l := NewLog(rec, "r", true)
	for i := 0; i < 32; i++ {
		l.Emit(SQLExec, i, "k", i%2 == 0, time.Duration(i), "")
	}
	evs := l.Events()
	if len(evs) != 32 {
		t.Fatalf("capture kept %d events, want all 32 despite the 4-slot ring", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("capture out of order at %d: %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
	if l.Count() != 32 {
		t.Errorf("Count() = %d, want 32", l.Count())
	}
}

func TestCaptureOnlyLogSequences(t *testing.T) {
	l := NewLog(nil, "solo", true)
	l.Emit(Admit, 1, "", false, 0, "")
	l.Emit(Verdict, 1, "", true, 0, "")
	evs := l.Events()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("capture-only log misnumbered: %+v", evs)
	}
}

func TestRunRingNewestFirstAndBounded(t *testing.T) {
	rec := NewRecorder(16)
	rec.runCap = 3
	for i := 1; i <= 5; i++ {
		rec.AddRun(RunSummary{Req: string(rune('0' + i))})
	}
	runs := rec.Runs()
	if len(runs) != 3 {
		t.Fatalf("retained %d runs, want 3", len(runs))
	}
	for i, want := range []string{"5", "4", "3"} {
		if runs[i].Req != want {
			t.Errorf("runs[%d].Req = %q, want %q (newest first)", i, runs[i].Req, want)
		}
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, Req: "r", Kind: Admit, Node: 4},
		{Seq: 2, Req: "r", Kind: ProbeCacheMiss, Node: 4, Probe: "J\x00k", Cause: "cold"},
		{Seq: 3, Req: "r", Kind: SQLExec, Node: 4, Probe: "J\x00k", Alive: true, Dur: 42 * time.Microsecond},
		{Seq: 4, Req: "r", Kind: Verdict, Node: 4, Alive: true},
	}
	sum := &RunSummary{Req: "r", Keywords: []string{"a", "b"}, Strategy: "SBH",
		Workers: 1, Probes: 1, SQLIssued: 1, SQLMS: 0.042, Answers: 1, Events: 4}
	var buf bytes.Buffer
	if err := WriteLedger(&buf, events, sum); err != nil {
		t.Fatal(err)
	}
	led, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Events) != len(events) {
		t.Fatalf("read %d events, want %d", len(led.Events), len(events))
	}
	for i, ev := range led.Events {
		if ev != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, events[i])
		}
	}
	if led.Summary == nil || led.Summary.Req != "r" || led.Summary.Events != 4 {
		t.Errorf("summary = %+v, want the written one", led.Summary)
	}
	if got := led.Summary.CacheHitRate(); got != 0 {
		t.Errorf("CacheHitRate() = %v, want 0", got)
	}
}

func TestReadLedgerTolerant(t *testing.T) {
	raw := strings.Join([]string{
		`{"v":2,"type":"event","seq":1,"kind":"quantum_probe","node":7}`,
		`{"v":2,"type":"annotation","note":"future line type"}`,
		`{"v":1,"type":"event","seq":2,"kind":"admit","node":7}`,
		``,
		`{"v":1,"type":"summary","summary":{"req":"x","workers":1,"data_version":0,"map_ms":0,"prune_ms":0,"mtn_ms":0,"traverse_ms":0,"probes":0,"cache_hits":0,"sql_issued":0,"sql_ms":0,"answers":0,"non_answers":0}}`,
	}, "\n")
	led, err := ReadLedger(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Events) != 2 {
		t.Fatalf("read %d events, want 2 (annotation skipped)", len(led.Events))
	}
	if led.Events[0].Kind != KindUnknown {
		t.Errorf("future kind parsed as %v, want KindUnknown", led.Events[0].Kind)
	}
	if led.Events[1].Kind != Admit {
		t.Errorf("known kind parsed as %v, want Admit", led.Events[1].Kind)
	}
	if led.Summary == nil || led.Summary.Req != "x" {
		t.Errorf("summary = %+v, want req x", led.Summary)
	}
}

func TestReadLedgerRejectsGarbage(t *testing.T) {
	if _, err := ReadLedger(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line should fail loudly, not silently skip")
	}
}

func TestWriteLedgerFileSanitizesStem(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteLedgerFile(dir, "../../evil req", nil, &RunSummary{Req: "evil"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(path, "..") || !strings.HasPrefix(path, dir) {
		t.Fatalf("unsafe ledger path %q", path)
	}
	if _, err := LoadLedger(path); err != nil {
		t.Fatalf("load back: %v", err)
	}
}

// TestReadLedgerRetiredKinds loads a ledger written before the candset_hit,
// candset_miss, plan_reuse, bitset_hit and bitset_fallback kinds were
// retired: their events load as KindUnknown and join no statistic, the run's
// candidate-set counts come from the summary record, and the probe chains
// around them analyze as usual. An old bitset_hit's Dur no longer counts in
// TotalSQL: only SQLExec events carry execution time.
func TestReadLedgerRetiredKinds(t *testing.T) {
	raw := strings.Join([]string{
		`{"v":1,"type":"event","seq":1,"req":"old","kind":"admit","node":4}`,
		`{"v":1,"type":"event","seq":2,"req":"old","kind":"candset_miss","node":-1,"probe":"Item\u0000s;scented"}`,
		`{"v":1,"type":"event","seq":3,"req":"old","kind":"candset_hit","node":-1,"probe":"Item\u0000s;scented"}`,
		`{"v":1,"type":"event","seq":4,"req":"old","kind":"plan_reuse","node":4,"probe":"key4"}`,
		`{"v":1,"type":"event","seq":5,"req":"old","kind":"bitset_fallback","node":4,"probe":"key4","cause":"unanchored"}`,
		`{"v":1,"type":"event","seq":6,"req":"old","kind":"sql_exec","node":4,"probe":"key4","alive":true,"dur_ns":2000}`,
		`{"v":1,"type":"event","seq":7,"req":"old","kind":"verdict","node":4,"alive":true}`,
		`{"v":1,"type":"event","seq":8,"req":"old","kind":"admit","node":7}`,
		`{"v":1,"type":"event","seq":9,"req":"old","kind":"bitset_hit","node":7,"probe":"key7","alive":false,"dur_ns":500}`,
		`{"v":1,"type":"event","seq":10,"req":"old","kind":"verdict","node":7,"alive":false}`,
		`{"v":1,"type":"summary","summary":{"req":"old","workers":1,"data_version":3,"map_ms":0,"prune_ms":0,"mtn_ms":0,"traverse_ms":0,"probes":2,"cache_hits":0,"sql_issued":2,"sql_ms":0.0025,"candset_hits":1,"candset_misses":1,"answers":1,"non_answers":1,"events":10}}`,
	}, "\n")
	led, err := ReadLedger(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Events) != 10 {
		t.Fatalf("read %d events, want 10", len(led.Events))
	}
	for _, i := range []int{1, 2, 3, 4, 8} {
		if led.Events[i].Kind != KindUnknown {
			t.Errorf("retired kind at seq %d parsed as %v, want KindUnknown", led.Events[i].Seq, led.Events[i].Kind)
		}
	}
	a := Analyze(led)
	if a.KindCounts[KindUnknown] != 5 || a.CandSetHits != 1 || a.CandSetMisses != 1 {
		t.Errorf("unknown=%d candset hits/misses %d/%d, want 5 and 1/1 from the summary",
			a.KindCounts[KindUnknown], a.CandSetHits, a.CandSetMisses)
	}
	if a.TotalSQL != 2*time.Microsecond {
		t.Errorf("TotalSQL = %v, want 2µs from the one sql_exec", a.TotalSQL)
	}
	if len(a.Probes) != 2 {
		t.Fatalf("grouped %d probes, want 2", len(a.Probes))
	}
	if p := a.Probes[0]; p.Identity() != "key4" || p.Admits != 1 || p.SQLExecs != 1 || p.Verdicts != 1 ||
		p.Replans != 0 || p.SQLTime != 2*time.Microsecond || !p.Alive {
		t.Errorf("node 4 chain wrong: %+v", p)
	}
	if p := a.Probes[1]; p.Identity() != "key7" || p.Admits != 1 || p.SQLExecs != 0 || p.Verdicts != 1 ||
		p.SQLTime != 0 || p.Alive {
		t.Errorf("node 7 chain wrong: %+v", p)
	}
	var buf bytes.Buffer
	a.RenderSummary(&buf)
	for _, want := range []string{"run old", "candset_hits=1 candset_misses=1", "unknown=5", "sql_exec=1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

func TestAnalyzeGroupsChains(t *testing.T) {
	led := &Ledger{Summary: &RunSummary{CandSetMisses: 1}, Events: []Event{
		{Seq: 2, Kind: Admit, Node: 4},
		{Seq: 3, Kind: ProbeCacheMiss, Node: 4, Probe: "key4", Cause: "cold"},
		{Seq: 4, Kind: SQLExec, Node: 4, Probe: "key4", Alive: true, Dur: 10 * time.Millisecond},
		{Seq: 5, Kind: Verdict, Node: 4, Alive: true},
		{Seq: 6, Kind: Admit, Node: 9},
		{Seq: 7, Kind: ProbeCacheHit, Node: 9, Probe: "key9", Alive: false},
		{Seq: 8, Kind: Verdict, Node: 9, Alive: false},
		{Seq: 9, Kind: Exhausted, Node: -1, Cause: "probe_budget"},
	}}
	a := Analyze(led)
	if len(a.Probes) != 2 {
		t.Fatalf("grouped %d probes, want 2", len(a.Probes))
	}
	p4 := a.Probes[0]
	if p4.Node != 4 || p4.Identity() != "key4" || p4.SQLExecs != 1 || p4.SQLTime != 10*time.Millisecond || !p4.Alive {
		t.Errorf("node 4 chain wrong: %+v", p4)
	}
	p9 := a.Probes[1]
	if p9.CacheHits != 1 || p9.SQLExecs != 0 || p9.Alive {
		t.Errorf("node 9 chain wrong: %+v", p9)
	}
	if a.TotalSQL != 10*time.Millisecond || a.Exhausted != "probe_budget" || a.CandSetMisses != 1 {
		t.Errorf("aggregates wrong: %+v", a)
	}
	if got := a.Slowest(1); len(got) != 1 || got[0].Node != 4 {
		t.Errorf("Slowest(1) = %+v, want node 4", got)
	}
}

// TestDiffAttributesColdRun is the analyzer's core promise in miniature: run A
// is warm (all cache hits, no SQL), run B is cold (misses + SQL), and the diff
// must attribute the entire SQL-time delta to the newly missed probes.
func TestDiffAttributesColdRun(t *testing.T) {
	warm := Analyze(&Ledger{Events: []Event{
		{Seq: 1, Kind: Admit, Node: 4},
		{Seq: 2, Kind: ProbeCacheHit, Node: 4, Probe: "key4", Alive: true},
		{Seq: 3, Kind: Verdict, Node: 4, Alive: true},
	}})
	cold := Analyze(&Ledger{Events: []Event{
		{Seq: 1, Kind: Admit, Node: 7}, // different node ID: matching is by key
		{Seq: 2, Kind: ProbeCacheMiss, Node: 7, Probe: "key4", Cause: "cold"},
		{Seq: 3, Kind: SQLExec, Node: 7, Probe: "key4", Alive: true, Dur: 5 * time.Millisecond},
		{Seq: 4, Kind: Verdict, Node: 7, Alive: true},
		{Seq: 5, Kind: Admit, Node: 8},
		{Seq: 6, Kind: ProbeCacheMiss, Node: 8, Probe: "key8", Cause: "cold"},
		{Seq: 7, Kind: SQLExec, Node: 8, Probe: "key8", Alive: false, Dur: 2 * time.Millisecond},
		{Seq: 8, Kind: Verdict, Node: 8, Alive: false},
	}})
	d := Diff(warm, cold)
	if d.SQLDelta != 7*time.Millisecond {
		t.Fatalf("SQLDelta = %v, want 7ms", d.SQLDelta)
	}
	if d.Explained != d.SQLDelta {
		t.Errorf("Explained = %v, want the full delta %v", d.Explained, d.SQLDelta)
	}
	if d.NewlyMissed != 2 {
		t.Errorf("NewlyMissed = %d, want 2", d.NewlyMissed)
	}
	// Largest delta first: key4 (5ms) before key8 (2ms).
	if len(d.Entries) != 2 || d.Entries[0].Key != "key4" || d.Entries[1].Key != "key8" {
		t.Fatalf("entries = %+v, want key4 then key8", d.Entries)
	}
	if d.Entries[1].OnlyIn != "b" {
		t.Errorf("key8 OnlyIn = %q, want b", d.Entries[1].OnlyIn)
	}
	var buf bytes.Buffer
	d.RenderDiff(&buf, "warm", "cold", 10)
	out := buf.String()
	for _, want := range []string{"sql delta (B-A): 7ms", "newly missed cache: 2", "(100%)", "only-in-b"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderDiff output missing %q:\n%s", want, out)
		}
	}
}

// TestDiffAttributesBypassedRun diffs a warm run against one with the cache
// bypassed: B records no cache event at all, so a probe A answered from the
// cache and B executed is newly missed by its lost hit. A hit B lost to a
// repair stays attributed to the repair alone.
func TestDiffAttributesBypassedRun(t *testing.T) {
	warm := Analyze(&Ledger{Events: []Event{
		{Seq: 1, Kind: Admit, Node: 4},
		{Seq: 2, Kind: ProbeCacheHit, Node: 4, Probe: "key4", Alive: true},
		{Seq: 3, Kind: Verdict, Node: 4, Alive: true},
	}})
	bypassed := Analyze(&Ledger{Events: []Event{
		{Seq: 1, Kind: Admit, Node: 4},
		{Seq: 2, Kind: SQLExec, Node: 4, Probe: "key4", Alive: true, Dur: 3 * time.Millisecond},
		{Seq: 3, Kind: Verdict, Node: 4, Alive: true},
	}})
	d := Diff(warm, bypassed)
	if d.SQLDelta != 3*time.Millisecond {
		t.Fatalf("SQLDelta = %v, want 3ms", d.SQLDelta)
	}
	if d.Explained != d.SQLDelta {
		t.Errorf("Explained = %v, want the full delta %v", d.Explained, d.SQLDelta)
	}
	if d.NewlyMissed != 1 {
		t.Errorf("NewlyMissed = %d, want 1", d.NewlyMissed)
	}

	repaired := Analyze(&Ledger{Events: []Event{
		{Seq: 1, Kind: Admit, Node: 4},
		{Seq: 2, Kind: Suspect, Node: 4, Probe: "key4", Cause: "suspect"},
		{Seq: 3, Kind: SQLExec, Node: 4, Probe: "key4", Alive: false, Dur: 2 * time.Millisecond},
		{Seq: 4, Kind: Repair, Node: 4, Probe: "key4", Cause: "confirmed"},
		{Seq: 5, Kind: Verdict, Node: 4, Alive: false},
	}})
	d = Diff(warm, repaired)
	if d.NewlyMissed != 0 || d.NewlyRepaired != 1 || d.Explained != d.SQLDelta {
		t.Errorf("repair diff: NewlyMissed %d, NewlyRepaired %d, Explained %v of %v; want 0, 1 and all",
			d.NewlyMissed, d.NewlyRepaired, d.Explained, d.SQLDelta)
	}
}

func TestRenderSummaryAndSlow(t *testing.T) {
	led := &Ledger{
		Events: []Event{
			{Seq: 1, Kind: Admit, Node: 4},
			{Seq: 2, Kind: SQLExec, Node: 4, Probe: "key4", Alive: true, Dur: time.Millisecond},
		},
		Summary: &RunSummary{Req: "007", Keywords: []string{"x"}, Strategy: "SBH",
			Workers: 2, Probes: 1, CacheHits: 0, SQLIssued: 1, Incomplete: true, IncompleteReason: "deadline"},
	}
	var buf bytes.Buffer
	a := Analyze(led)
	a.RenderSummary(&buf)
	for _, want := range []string{"run 007", "INCOMPLETE(deadline)", "admit=1", "sql_exec=1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	a.RenderSlow(&buf, 5)
	if !strings.Contains(buf.String(), "node=4") || !strings.Contains(buf.String(), "dur=1ms") {
		t.Errorf("slow view missing probe chain:\n%s", buf.String())
	}
}

func TestContextRoundTrip(t *testing.T) {
	l := NewLog(nil, "ctx", false)
	ctx := NewContext(t.Context(), l)
	if FromContext(ctx) != l {
		t.Fatal("FromContext lost the log")
	}
	if FromContext(t.Context()) != nil {
		t.Fatal("FromContext on bare context should be nil")
	}
	if got := NewContext(t.Context(), nil); FromContext(got) != nil {
		t.Fatal("NewContext(nil) should not install anything")
	}
}

// TestRecorderConcurrentLogs drives one 8-slot ring from several logs, some
// capturing, each shared by several writer goroutines, while readers call
// every reading method. Run it with -race -count=10: the recorder's one mutex
// guards the ring and every attached log's counts and capture buffer.
func TestRecorderConcurrentLogs(t *testing.T) {
	const (
		nLogs      = 4
		perLog     = 2 // writer goroutines per log
		perWriter  = 400
		ringSize   = 8
		perLogEmit = perLog * perWriter
	)
	rec := NewRecorder(ringSize)
	logs := make([]*Log, nLogs)
	kindOf := func(i int) Kind { return Kind(1 + i%int(numKinds-1)) }
	before := make([]float64, numKinds)
	for k := range before {
		before[k] = evCounters[k].Value()
	}
	for i := range logs {
		logs[i] = NewLog(rec, string(rune('a'+i)), i%2 == 0)
	}

	var writers sync.WaitGroup
	for i, l := range logs {
		for g := 0; g < perLog; g++ {
			writers.Add(1)
			go func(i, g int, l *Log) {
				defer writers.Done()
				for n := 0; n < perWriter; n++ {
					l.Emit(kindOf(i), g*perWriter+n, "", false, 0, "")
				}
				rec.AddRun(RunSummary{Req: l.Req()})
			}(i, g, l)
		}
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()

	// Readers: every unfiltered snapshot must be a gapless, ordered run of
	// sequence numbers, however the writers interleave.
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				evs := rec.Snapshot("")
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq != evs[i-1].Seq+1 {
						t.Errorf("concurrent snapshot not gapless: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
						return
					}
				}
				_ = rec.Runs()
				for _, l := range logs {
					_ = l.Count()
					_ = l.Events()
				}
			}
		}()
	}
	readers.Wait()

	total := nLogs * perLogEmit
	last := rec.Snapshot("")
	if len(last) != ringSize {
		t.Fatalf("final snapshot has %d events, want %d", len(last), ringSize)
	}
	for i, ev := range last {
		if want := uint64(total - ringSize + i + 1); ev.Seq != want {
			t.Fatalf("final snapshot[%d].Seq = %d, want %d (the newest %d of %d)", i, ev.Seq, want, ringSize, total)
		}
	}
	seen := make(map[uint64]bool)
	for i, l := range logs {
		if got := l.Count(); got != perLogEmit {
			t.Errorf("log %d: Count() = %d, want %d", i, got, perLogEmit)
		}
		evs := l.Events()
		if !l.capture {
			if evs != nil {
				t.Errorf("log %d: non-capturing log returned %d events", i, len(evs))
			}
			continue
		}
		if len(evs) != perLogEmit {
			t.Fatalf("log %d: captured %d events, want %d", i, len(evs), perLogEmit)
		}
		next := make([]int32, perLog) // each writer's next expected node
		for j, ev := range evs {
			if ev.Req != l.Req() || ev.Kind != kindOf(i) {
				t.Fatalf("log %d: captured a foreign event %+v", i, ev)
			}
			if ev.Seq == 0 || ev.Seq > uint64(total) || seen[ev.Seq] {
				t.Fatalf("log %d: sequence number %d out of range or reused", i, ev.Seq)
			}
			seen[ev.Seq] = true
			if j > 0 && ev.Seq <= evs[j-1].Seq {
				t.Fatalf("log %d: capture out of order at %d", i, j)
			}
			g := ev.Node / perWriter
			if ev.Node != int32(g)*perWriter+next[g] {
				t.Fatalf("log %d: writer %d's event %d captured out of order", i, g, ev.Node)
			}
			next[g]++
		}
	}
	if runs := rec.Runs(); len(runs) != nLogs*perLog {
		t.Errorf("Runs() = %d summaries, want %d", len(runs), nLogs*perLog)
	}

	for _, l := range logs {
		l.Flush()
	}
	want := make([]float64, numKinds)
	for i := range logs {
		want[kindOf(i)] += perLogEmit
	}
	for k := range want {
		if got := evCounters[k].Value() - before[k]; got != want[k] {
			t.Errorf("kwsdbg_flight_events_total{kind=%q} rose by %v, want %v", Kind(k), got, want[k])
		}
	}
}

func TestFlushCountsOnce(t *testing.T) {
	l := NewLog(nil, "flush", false)
	before := evCounters[Retry].Value()
	l.Emit(Retry, -1, "", false, 0, "")
	l.Emit(Retry, -1, "", false, 0, "")
	if got := evCounters[Retry].Value() - before; got != 0 {
		t.Fatalf("counter moved by %v before Flush, want 0", got)
	}
	l.Flush()
	l.Flush()
	if got := evCounters[Retry].Value() - before; got != 2 {
		t.Fatalf("counter moved by %v after two Flushes, want 2", got)
	}
	if l.Count() != 2 {
		t.Errorf("Count() = %d after Flush, want 2", l.Count())
	}
	var nilLog *Log
	nilLog.Flush()
}

func BenchmarkEmitRingOnly(b *testing.B) {
	rec := NewRecorder(DefaultRingSize)
	l := NewLog(rec, "bench", false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(SQLExec, 7, "probe-key", true, time.Millisecond, "")
	}
}

// BenchmarkEmitParallelLogs emits from concurrent goroutines, each on its
// own log, into one shared ring: the server's shape under load.
func BenchmarkEmitParallelLogs(b *testing.B) {
	rec := NewRecorder(DefaultRingSize)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		l := NewLog(rec, "bench", false)
		for pb.Next() {
			l.Emit(SQLExec, 7, "probe-key", true, time.Millisecond, "")
		}
	})
}

// BenchmarkSnapshotWrappedHalf snapshots a full default-size ring whose next
// write lands mid-ring, the case GET /debug/flight pays after any multiple of
// half a ring of events.
func BenchmarkSnapshotWrappedHalf(b *testing.B) {
	rec := NewRecorder(DefaultRingSize)
	l := NewLog(rec, "bench", false)
	for i := 0; i < DefaultRingSize+DefaultRingSize/2; i++ {
		l.Emit(SQLExec, i, "probe-key", true, 0, "")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(rec.Snapshot("")) != DefaultRingSize {
			b.Fatal("snapshot lost events")
		}
	}
}

func BenchmarkEmitNil(b *testing.B) {
	var l *Log
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit(SQLExec, 7, "probe-key", true, time.Millisecond, "")
	}
}
