package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kwsdbg/internal/obs"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/probecache"
)

// TestLedgerDiffAttributesWarmVsCold is the flight recorder's end-to-end
// acceptance path: the same query runs twice through the full HTTP stack with
// ledger capture on — once against an empty probe cache (cold) and once warm —
// and diffing the two ledgers must attribute the whole SQL-time difference to
// the probes that missed the cache in the cold run.
func TestLedgerDiffAttributesWarmVsCold(t *testing.T) {
	s := testServer(t)
	s.sys.SetProbeCache(probecache.New(probecache.Config{}))
	s.LedgerDir = t.TempDir()

	debug := func() string {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/debug?q=saffron+scented+candle&ledger=1", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		path := rec.Header().Get("X-Kwsdbg-Ledger")
		if path == "" {
			t.Fatal("response carries no X-Kwsdbg-Ledger header")
		}
		if filepath.Dir(path) != s.LedgerDir {
			t.Fatalf("ledger %q written outside the configured directory %q", path, s.LedgerDir)
		}
		return path
	}
	coldPath := debug()
	warmPath := debug()

	load := func(path string) (*flight.Ledger, *flight.Analysis) {
		t.Helper()
		led, err := flight.LoadLedger(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		return led, flight.Analyze(led)
	}
	coldLed, cold := load(coldPath)
	warmLed, warm := load(warmPath)

	if coldLed.Summary == nil || warmLed.Summary == nil {
		t.Fatal("ledger missing its closing run summary")
	}
	if coldLed.Summary.CacheHits != 0 {
		t.Errorf("cold run reports %d cache hits, want 0", coldLed.Summary.CacheHits)
	}
	if warmLed.Summary.CacheHits == 0 {
		t.Error("warm run reports no cache hits")
	}
	if warm.TotalSQL != 0 {
		t.Errorf("warm run spent %v in SQL, want 0 (every probe should hit the cache)", warm.TotalSQL)
	}
	if cold.TotalSQL <= 0 {
		t.Fatalf("cold run spent %v in SQL, want > 0", cold.TotalSQL)
	}

	// Diff with the warm run as baseline: "why was the cold run slower?"
	d := flight.Diff(warm, cold)
	if d.SQLDelta != cold.TotalSQL-warm.TotalSQL {
		t.Errorf("SQLDelta = %v, want %v", d.SQLDelta, cold.TotalSQL-warm.TotalSQL)
	}
	if d.Explained != d.SQLDelta {
		t.Errorf("Explained = %v, want the full SQL delta %v: every slow probe newly missed the cache", d.Explained, d.SQLDelta)
	}
	if d.NewlyMissed == 0 {
		t.Error("diff flagged no newly-missed probes")
	}
	var sb strings.Builder
	d.RenderDiff(&sb, "warm", "cold", 10)
	for _, want := range []string{"warm", "cold", "newly-missed"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered diff missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDebugRunsAndFlightEndpoints covers the recorder's read-side endpoints:
// /debug/runs serves recent run summaries newest first, /debug/flight dumps
// the ring (optionally filtered by request ID), and ledger=1 without a
// configured directory is a client error.
func TestDebugRunsAndFlightEndpoints(t *testing.T) {
	s := testServer(t)

	rec, _ := get(t, s, "/debug?q=saffron+scented+candle&ledger=1")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("ledger=1 without a ledger dir: status = %d, want 400", rec.Code)
	}

	rec, _ = get(t, s, "/debug?q=saffron+scented+candle")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug status = %d", rec.Code)
	}

	rec, body := get(t, s, "/debug/runs")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/runs status = %d", rec.Code)
	}
	runs := body["runs"].([]any)
	if len(runs) != 1 {
		t.Fatalf("/debug/runs lists %d runs, want 1", len(runs))
	}
	run := runs[0].(map[string]any)
	if run["req"] == "" || run["events"].(float64) <= 0 || run["probes"].(float64) <= 0 {
		t.Errorf("run summary incomplete: %v", run)
	}

	rec, body = get(t, s, "/debug/flight")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/flight status = %d", rec.Code)
	}
	events := body["events"].([]any)
	if len(events) == 0 {
		t.Fatal("/debug/flight returned no events")
	}
	first := events[0].(map[string]any)
	if first["kind"] == nil || first["seq"].(float64) <= 0 {
		t.Errorf("event missing kind/seq: %v", first)
	}

	// Filtering by the run's request ID keeps its events; filtering by a
	// bogus ID yields none.
	reqID := run["req"].(string)
	rec, body = get(t, s, "/debug/flight?req="+reqID)
	if rec.Code != http.StatusOK || len(body["events"].([]any)) == 0 {
		t.Errorf("/debug/flight?req=%s: status %d, %d events", reqID, rec.Code, len(body["events"].([]any)))
	}
	_, body = get(t, s, "/debug/flight?req=no-such-request")
	if got := len(body["events"].([]any)); got != 0 {
		t.Errorf("bogus request filter returned %d events, want 0", got)
	}

	// The dump and a 5xx body for the run's request both carry the ring's
	// events in flight.Event's own JSON form, so they decode back exactly.
	want := s.Recorder.Snapshot(reqID)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/flight?req="+reqID, nil))
	var dump struct {
		Events []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil || !reflect.DeepEqual(dump.Events, want) {
		t.Errorf("/debug/flight?req=%s decodes to %+v (err %v), want the ring's %+v", reqID, dump.Events, err, want)
	}
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/debug", nil)
	s.writeError(rec, req.WithContext(obs.WithRequestID(req.Context(), reqID)), http.StatusInternalServerError, errors.New("boom"))
	var failed struct {
		Flight []flight.Event `json:"flight"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &failed); err != nil || !reflect.DeepEqual(failed.Flight, want) {
		t.Errorf("5xx body's flight decodes to %+v (err %v), want the ring's %+v", failed.Flight, err, want)
	}
}
