package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kwsdbg/internal/obs/flight"
)

// writeLedger writes a small synthetic ledger and returns its path. warm runs
// answer every probe from the cache; cold runs miss and execute SQL.
func writeLedger(t *testing.T, dir, req string, warm bool) string {
	t.Helper()
	var events []flight.Event
	seq := uint64(0)
	emit := func(k flight.Kind, node int32, probe string, alive bool, dur time.Duration, cause string) {
		seq++
		events = append(events, flight.Event{
			Seq: seq, Req: req, Kind: k, Node: node, Probe: probe,
			Alive: alive, Dur: dur, Cause: cause,
		})
	}
	sum := flight.RunSummary{Req: req, Keywords: []string{"a", "b"}, Strategy: "SBH"}
	for node := int32(1); node <= 3; node++ {
		key := "R{a}" + string(rune('0'+node))
		if warm {
			emit(flight.ProbeCacheHit, node, key, true, 0, "")
			sum.CacheHits++
		} else {
			emit(flight.ProbeCacheMiss, node, key, false, 0, "cold")
			emit(flight.Replan, node, key, false, 0, "cold")
			emit(flight.SQLExec, node, key, true, time.Duration(node)*time.Millisecond, "")
			sum.SQLMS += float64(node)
		}
		sum.Probes++
	}
	sum.Events = len(events)
	path, err := flight.WriteLedgerFile(dir, req, events, &sum)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummarySlowDiff(t *testing.T) {
	dir := t.TempDir()
	warm := writeLedger(t, dir, "warm-run", true)
	cold := writeLedger(t, dir, "cold-run", false)

	var sb strings.Builder
	if code := run([]string{"summary", cold}, &sb); code != 0 {
		t.Fatalf("summary exit = %d", code)
	}
	for _, want := range []string{"cold-run", "probes", "sql"} {
		if !strings.Contains(strings.ToLower(sb.String()), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}

	sb.Reset()
	if code := run([]string{"slow", "-top", "2", cold}, &sb); code != 0 {
		t.Fatalf("slow exit = %d", code)
	}
	// Node 3 carries the most SQL time; with -top 2 node 1 must be cut.
	if !strings.Contains(sb.String(), "3ms") {
		t.Errorf("slow omitted the slowest probe:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "1ms") {
		t.Errorf("slow -top 2 still shows the fastest probe:\n%s", sb.String())
	}

	sb.Reset()
	if code := run([]string{"diff", warm, cold}, &sb); code != 0 {
		t.Fatalf("diff exit = %d", code)
	}
	out := sb.String()
	// 1+2+3 ms of cold SQL, all newly missed, all attributed.
	for _, want := range []string{"sql delta (B-A): 6ms", "+3ms", "newly-missed", "(100%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}
}

func TestUsageAndReadErrors(t *testing.T) {
	var sb strings.Builder
	if code := run(nil, &sb); code != 1 {
		t.Errorf("no args: exit = %d, want 1", code)
	}
	if code := run([]string{"frobnicate"}, &sb); code != 1 {
		t.Errorf("unknown subcommand: exit = %d, want 1", code)
	}
	if code := run([]string{"summary"}, &sb); code != 1 {
		t.Errorf("summary with no file: exit = %d, want 1", code)
	}
	if code := run([]string{"diff", "only-one.jsonl"}, &sb); code != 1 {
		t.Errorf("diff with one file: exit = %d, want 1", code)
	}
	if code := run([]string{"help"}, &sb); code != 0 {
		t.Errorf("help: exit = %d, want 0", code)
	}

	if code := run([]string{"summary", filepath.Join(t.TempDir(), "absent.jsonl")}, &sb); code != 2 {
		t.Errorf("missing ledger: exit = %d, want 2", code)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"summary", garbage}, &sb); code != 2 {
		t.Errorf("garbage ledger: exit = %d, want 2", code)
	}
	dir := t.TempDir()
	good := writeLedger(t, dir, "ok", true)
	if code := run([]string{"diff", good, filepath.Join(dir, "absent.jsonl")}, &sb); code != 2 {
		t.Errorf("diff with one unreadable ledger: exit = %d, want 2", code)
	}
}
