package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kwsdbg/internal/probecache"
)

func post(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	out := map[string]any{}
	if rec.Body.Len() > 0 {
		decodeJSON(t, rec, &out)
	}
	return rec, out
}

func decodeJSON(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
}

func TestWriteEndpoint(t *testing.T) {
	s := testServer(t)
	s.sys.SetProbeCache(probecache.New(probecache.Config{}))

	before := s.sys.Engine().DataVersion()
	rec, body := post(t, s, "/write",
		`{"sql": "INSERT INTO PType VALUES (4, 'soap')"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	if body["rows_inserted"].(float64) != 1 {
		t.Fatalf("rows_inserted = %v", body["rows_inserted"])
	}
	if uint64(body["data_version"].(float64)) <= before {
		t.Fatalf("data_version did not advance: %v <= %d", body["data_version"], before)
	}
	if _, ok := body["probe_cache"]; !ok {
		t.Fatalf("response missing probe_cache stats: %v", body)
	}
}

// TestWriteSuspectsOnlyIntersectingVerdicts drives the full HTTP loop: warm
// the cache with a debug run, write a row into a table the run's dead
// verdicts join, and check the next run repairs rather than recomputes — the
// cache reports suspects and repairs, not a wholesale flush.
func TestWriteSuspectsOnlyIntersectingVerdicts(t *testing.T) {
	s := testServer(t)
	s.sys.SetProbeCache(probecache.New(probecache.Config{}))

	if rec, body := get(t, s, "/debug?q=saffron+scented+candle"); rec.Code != http.StatusOK {
		t.Fatalf("cold debug: %d %v", rec.Code, body)
	}
	warmed := s.sys.ProbeCache().Snapshot().Entries
	if warmed == 0 {
		t.Fatal("cold run cached nothing")
	}

	// 'saffron' items exist after this write, so some dead verdicts over
	// Item must flip; all of them sit behind suspect downgrades.
	rec, body := post(t, s, "/write",
		`{"sql": "INSERT INTO Item VALUES (5, 'saffron scented candle', 2, 4, 4, 9.5, 'new stock')"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("write: %d %v", rec.Code, body)
	}

	rec2, body2 := get(t, s, "/debug?q=saffron+scented+candle")
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm debug: %d %v", rec2.Code, body2)
	}
	st := s.sys.ProbeCache().Snapshot()
	if st.Suspects == 0 {
		t.Fatalf("write into a probed table produced no suspects: %+v", st)
	}
	if st.Repairs == 0 {
		t.Fatalf("warm run repaired nothing: %+v", st)
	}
	if st.EvictionsStale != 0 {
		t.Fatalf("monotone insert caused stale evictions: %+v", st)
	}
}

func TestWriteRejectsBadRequests(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s, "/write"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /write = %d, want 405", rec.Code)
	}
	if rec, _ := post(t, s, "/write", `{"sql": ""}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty sql = %d, want 400", rec.Code)
	}
	if rec, _ := post(t, s, "/write", `not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", rec.Code)
	}
	if rec, _ := post(t, s, "/write", `{"sql": "SELECT * FROM Item"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("SELECT body = %d, want 422", rec.Code)
	}
	if rec, _ := post(t, s, "/write", `{"sql": "INSERT INTO Nope VALUES (1)"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown table = %d, want 422", rec.Code)
	}
	// A 422 means nothing was written: the good first row of a statement
	// whose second row is bad must not be stored either.
	eng := s.sys.Engine()
	tbl, _ := eng.Database().Table("PType")
	rows, version := tbl.RowCount(), eng.DataVersion()
	if rec, _ := post(t, s, "/write", `{"sql": "INSERT INTO PType VALUES (4, 'blue candle'), ('x', 'oops')"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad second row = %d, want 422", rec.Code)
	}
	if got := tbl.RowCount(); got != rows {
		t.Fatalf("PType rows %d -> %d after a rejected write", rows, got)
	}
	if got := eng.DataVersion(); got != version {
		t.Fatalf("data_version %d -> %d after a rejected write", version, got)
	}
}
