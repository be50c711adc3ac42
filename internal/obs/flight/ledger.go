package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// LedgerVersion is the schema revision stamped on every ledger line. Readers
// are tolerant: unknown line types and event kinds are skipped or mapped to
// KindUnknown, so a v1 kwstrace degrades gracefully on a v2 ledger instead
// of refusing it.
const LedgerVersion = 1

// RunSummary is the one-record digest of a debug run: identity, shape, and
// the accounting the paper's figures are built from (probe counts, cache hit
// rates, SQL time, phase timings). It closes every ledger and populates
// GET /debug/runs.
type RunSummary struct {
	// Req is the server request ID, doubling as the ledger file stem.
	Req string `json:"req"`
	// UnixNS is the wall-clock completion time (from internal/clock).
	UnixNS int64 `json:"unix_ns,omitempty"`
	// Keywords and Strategy identify what was debugged and how.
	Keywords []string `json:"keywords,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	// Workers is the traversal worker count.
	Workers int `json:"workers"`
	// DataVersion is the engine's data version (its version vector's Seq)
	// when the run finished; two ledgers with different versions are not
	// cache-comparable.
	DataVersion uint64 `json:"data_version"`

	// Per-phase wall timings in milliseconds.
	MapMS      float64 `json:"map_ms"`
	PruneMS    float64 `json:"prune_ms"`
	MTNMS      float64 `json:"mtn_ms"`
	TraverseMS float64 `json:"traverse_ms"`

	// Probes is total aliveness checks (cache hits included); SQLIssued is
	// the subset that reached the database, costing SQLMS milliseconds.
	Probes    int     `json:"probes"`
	CacheHits int     `json:"cache_hits"`
	SQLIssued int     `json:"sql_issued"`
	SQLMS     float64 `json:"sql_ms"`

	PlanCompiles  int `json:"plan_compiles,omitempty"`
	CandSetHits   int `json:"candset_hits,omitempty"`
	CandSetMisses int `json:"candset_misses,omitempty"`

	// BudgetLimit is the probe budget (0 = unlimited); Incomplete and
	// IncompleteReason mark a run the governor cut short.
	BudgetLimit      int    `json:"budget_limit,omitempty"`
	Incomplete       bool   `json:"incomplete,omitempty"`
	IncompleteReason string `json:"incomplete_reason,omitempty"`

	Answers    int `json:"answers"`
	NonAnswers int `json:"non_answers"`
	// Events is how many flight events the run emitted.
	Events int `json:"events,omitempty"`
}

// CacheHitRate is hits over probes, 0 when no probes ran.
func (s *RunSummary) CacheHitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Probes)
}

// eventLine is the wire form of one event. Kind travels as its string name
// so ledgers stay greppable and survive enum renumbering.
type eventLine struct {
	V     int    `json:"v"`
	Type  string `json:"type"`
	Seq   uint64 `json:"seq"`
	Req   string `json:"req,omitempty"`
	Kind  string `json:"kind"`
	Node  int32  `json:"node"`
	Probe string `json:"probe,omitempty"`
	Alive bool   `json:"alive,omitempty"`
	DurNS int64  `json:"dur_ns,omitempty"`
	Cause string `json:"cause,omitempty"`
}

// summaryLine closes the ledger.
type summaryLine struct {
	V       int         `json:"v"`
	Type    string      `json:"type"`
	Summary *RunSummary `json:"summary"`
}

// WriteLedger streams the run as JSONL: one line per event in sequence
// order, then the summary record.
func WriteLedger(w io.Writer, events []Event, sum *RunSummary) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		ev := &events[i]
		line := eventLine{
			V: LedgerVersion, Type: "event",
			Seq: ev.Seq, Req: ev.Req, Kind: ev.Kind.String(), Node: ev.Node,
			Probe: ev.Probe, Alive: ev.Alive, DurNS: int64(ev.Dur), Cause: ev.Cause,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if sum != nil {
		if err := enc.Encode(summaryLine{V: LedgerVersion, Type: "summary", Summary: sum}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteLedgerFile writes the run's ledger to dir/run-<req>.jsonl and returns
// the path. It owns the ledger metrics: runs, bytes, and write errors.
func WriteLedgerFile(dir, req string, events []Event, sum *RunSummary) (string, error) {
	path := filepath.Join(dir, "run-"+sanitizeStem(req)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		mLedgerErrors.Inc()
		return "", fmt.Errorf("ledger: %w", err)
	}
	cw := &countingWriter{w: f}
	werr := WriteLedger(cw, events, sum)
	cerr := f.Close()
	mLedgerBytes.Add(float64(cw.n))
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		mLedgerErrors.Inc()
		return "", fmt.Errorf("ledger %s: %w", path, werr)
	}
	mLedgerRuns.Inc()
	return path, nil
}

// sanitizeStem keeps the request ID filesystem-safe.
func sanitizeStem(req string) string {
	if req == "" {
		return "unnamed"
	}
	b := []byte(req)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Ledger is one loaded run: its event stream (sequence-ordered) and summary.
type Ledger struct {
	// Path is where the ledger was loaded from ("" for readers).
	Path    string
	Events  []Event
	Summary *RunSummary
}

// maxLedgerLine bounds one JSONL line; probe keys are label+keywords, well
// under this.
const maxLedgerLine = 1 << 20

// ReadLedger parses a JSONL ledger stream. Lines with unknown types are
// skipped; unknown event kinds load as KindUnknown.
func ReadLedger(r io.Reader) (*Ledger, error) {
	led := &Ledger{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLedgerLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", lineNo, err)
		}
		switch head.Type {
		case "event":
			var el eventLine
			if err := json.Unmarshal(raw, &el); err != nil {
				return nil, fmt.Errorf("ledger line %d: %w", lineNo, err)
			}
			led.Events = append(led.Events, Event{
				Seq: el.Seq, Req: el.Req, Kind: ParseKind(el.Kind), Node: el.Node,
				Probe: el.Probe, Alive: el.Alive, Dur: time.Duration(el.DurNS), Cause: el.Cause,
			})
		case "summary":
			var sl summaryLine
			if err := json.Unmarshal(raw, &sl); err != nil {
				return nil, fmt.Errorf("ledger line %d: %w", lineNo, err)
			}
			led.Summary = sl.Summary
		default:
			// Forward compatibility: a newer writer may add line types.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// A ledger's writer emits events in sequence order, but one assembled
	// or edited by hand need not be; analysis assumes the order.
	sort.SliceStable(led.Events, func(i, j int) bool { return led.Events[i].Seq < led.Events[j].Seq })
	return led, nil
}

// LoadLedger reads a ledger file from disk.
func LoadLedger(path string) (*Ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	led, err := ReadLedger(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	led.Path = path
	return led, nil
}
