package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"kwsdbg/internal/core"
	"kwsdbg/internal/figure2"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	eng, err := figure2.Engine()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(eng, lattice.Options{MaxJoins: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sys)
	s.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return s
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, rec.Body.String())
	}
	return rec, body
}

func TestHealth(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["status"] != "ok" || body["lattice_nodes"].(float64) <= 0 {
		t.Errorf("body = %v", body)
	}
}

func TestDebugEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/debug?q=saffron+scented+candle&strategy=TDWR&sql=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	nonAnswers := body["non_answers"].([]any)
	if len(nonAnswers) != 4 {
		t.Fatalf("non_answers = %d", len(nonAnswers))
	}
	first := nonAnswers[0].(map[string]any)["query"].(map[string]any)
	if first["sql"] == nil || !strings.HasPrefix(first["sql"].(string), "SELECT") {
		t.Errorf("sql=1 did not include SQL: %v", first)
	}
	stats := body["stats"].(map[string]any)
	if stats["strategy"] != "TDWR" {
		t.Errorf("strategy = %v", stats["strategy"])
	}
}

func TestSearchEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/search?q=scented+candle&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	top := results[0].(map[string]any)
	if top["score"].(float64) <= 0 || top["tree"] == "" {
		t.Errorf("top result = %v", top)
	}
	if _, ok := top["tuple"].(map[string]any); !ok {
		t.Errorf("tuple missing: %v", top)
	}
	// Missing keyword reports rather than errors.
	rec, body = get(t, s, "/search?q=zzz+candle")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if missing := body["missing"].([]any); len(missing) != 1 || missing[0] != "zzz" {
		t.Errorf("missing = %v", body["missing"])
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/debug", http.StatusBadRequest},
		{"/debug?q=", http.StatusBadRequest},
		{"/debug?q=a+b+c+d", http.StatusUnprocessableEntity}, // too many keywords
		{"/debug?q=x&strategy=NOPE", http.StatusBadRequest},
		{"/search", http.StatusBadRequest},
		{"/search?q=x&k=0", http.StatusBadRequest},
		{"/search?q=x&k=9999", http.StatusBadRequest},
		{"/search?q=x&k=abc", http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec, body := get(t, s, tc.path)
		if rec.Code != tc.want {
			t.Errorf("GET %s: status %d, want %d (%v)", tc.path, rec.Code, tc.want, body)
		}
		if body["error"] == "" {
			t.Errorf("GET %s: no error message", tc.path)
		}
	}
}

func TestTimeout(t *testing.T) {
	s := testServer(t)
	s.Timeout = time.Nanosecond
	rec, body := get(t, s, "/debug?q=saffron+scented+candle&strategy=RE")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("status = %d (%v); a nanosecond budget must abort probing", rec.Code, body)
	}
}

func TestSearchPartialEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/search?q=saffron+scented+incense&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	if results := body["results"].([]any); len(results) != 0 {
		t.Fatalf("dead query returned full results: %v", results)
	}
	partials, ok := body["partials"].([]any)
	if !ok || len(partials) == 0 {
		t.Fatalf("no partials for dead query: %v", body)
	}
	first := partials[0].(map[string]any)
	if covered := first["covered"].([]any); len(covered) == 0 {
		t.Errorf("partial without coverage: %v", first)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	// One debug run drives the whole pipeline so every layer's metrics move.
	rec, _ := get(t, s, "/debug?q=saffron+scented+candle&strategy=BU")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, req)
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", mrec.Code)
	}
	if ct := mrec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := mrec.Body.String()
	for _, want := range []string{
		`kwsdbg_probe_total{strategy="BU"}`,
		"kwsdbg_phase_seconds_bucket",
		"kwsdbg_lattice_nodes",
		"kwsdbg_lattice_build_seconds",
		"kwsdbg_sql_exec_total",
		"kwsdbg_invidx_lookup_total",
		`kwsdbg_http_requests_total{path="/debug",status="200"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The probe counter must be non-zero after a real debug run.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `kwsdbg_probe_total{strategy="BU"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("probe counter still zero: %s", line)
			}
		}
	}
}

func TestDebugTrace(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s, "/debug?q=saffron+scented+candle&strategy=TD&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	trace, ok := body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in response: %v", body)
	}
	if trace["name"] != "debug" {
		t.Errorf("root span = %v", trace["name"])
	}
	children, _ := trace["children"].([]any)
	var phase3 map[string]any
	names := []string{}
	for _, c := range children {
		span := c.(map[string]any)
		names = append(names, span["name"].(string))
		if span["name"] == "phase3" {
			phase3 = span
		}
	}
	if len(names) != 2 || names[0] != "phase12" || names[1] != "phase3" {
		t.Fatalf("span children = %v", names)
	}
	// The trace's probe accounting must agree with the Stats the core computes.
	attrs := phase3["attrs"].(map[string]any)
	stats := body["stats"].(map[string]any)
	if attrs["probes"] != stats["sql_executed"] {
		t.Errorf("trace probes = %v, stats sql_executed = %v", attrs["probes"], stats["sql_executed"])
	}
	if attrs["strategy"] != "TD" {
		t.Errorf("trace strategy = %v", attrs["strategy"])
	}
	if attrs["inferred"] != stats["inferred"] {
		t.Errorf("trace inferred = %v, stats inferred = %v", attrs["inferred"], stats["inferred"])
	}
	// Without trace=1 the field is absent.
	_, body = get(t, s, "/debug?q=saffron+scented+candle")
	if _, present := body["trace"]; present {
		t.Error("trace present without trace=1")
	}
}

func TestRequestIDHeader(t *testing.T) {
	s := testServer(t)
	rec, _ := get(t, s, "/healthz")
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestDebugWorkersAndCache exercises the /debug concurrency and cache knobs:
// results must be identical across worker counts, a warm cache must report
// hits while sql_executed stays fixed, and cache=0 must bypass it again.
func TestDebugWorkersAndCache(t *testing.T) {
	s := testServer(t)
	s.sys.SetProbeCache(probecache.New(probecache.Config{}))

	stats := func(path string) (map[string]any, map[string]any) {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status = %d: %v", path, rec.Code, body)
		}
		return body, body["stats"].(map[string]any)
	}

	base, st0 := stats("/debug?q=saffron+scented+candle&strategy=BUWR&cache=0")
	if st0["cache_hits"].(float64) != 0 {
		t.Fatalf("cache=0 run reported cache hits: %v", st0)
	}
	for _, path := range []string{
		"/debug?q=saffron+scented+candle&strategy=BUWR&workers=4&cache=0",
		"/debug?q=saffron+scented+candle&strategy=BUWR&workers=4",
	} {
		body, st := stats(path)
		if st["sql_executed"] != st0["sql_executed"] {
			t.Errorf("%s: sql_executed = %v, want %v", path, st["sql_executed"], st0["sql_executed"])
		}
		if !reflect.DeepEqual(body["answers"], base["answers"]) ||
			!reflect.DeepEqual(body["non_answers"], base["non_answers"]) {
			t.Errorf("%s: output diverged from serial run", path)
		}
	}
	// The previous request warmed the cache; a repeat must hit it.
	_, st := stats("/debug?q=saffron+scented+candle&strategy=BUWR")
	if st["cache_hits"].(float64) == 0 {
		t.Errorf("warm repeat reported no cache hits: %v", st)
	}
	if got := st["sql_issued"].(float64); got != st["sql_executed"].(float64)-st["cache_hits"].(float64) {
		t.Errorf("sql_issued = %v, want executed - hits", got)
	}
	// And a bypass run right after must not.
	_, st = stats("/debug?q=saffron+scented+candle&strategy=BUWR&cache=0")
	if st["cache_hits"].(float64) != 0 {
		t.Errorf("cache=0 after warmup still hit: %v", st)
	}

	rec, _ := get(t, s, "/debug?q=candle&workers=banana")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("workers=banana: status = %d, want 400", rec.Code)
	}
	// Out-of-range worker counts are clamped, not rejected: the cap is a
	// server resource bound, and the scheduler's output is identical at any
	// worker count anyway.
	body, st9000 := stats("/debug?q=saffron+scented+candle&strategy=BUWR&workers=9000&cache=0")
	if st9000["sql_executed"] != st0["sql_executed"] {
		t.Errorf("workers=9000: sql_executed = %v, want %v", st9000["sql_executed"], st0["sql_executed"])
	}
	if !reflect.DeepEqual(body["answers"], base["answers"]) {
		t.Error("workers=9000: output diverged from serial run")
	}
	rec, _ = get(t, s, "/debug?q=saffron+scented+candle&workers=-2")
	if rec.Code != http.StatusOK {
		t.Errorf("workers=-2: status = %d, want 200 (clamped to 1)", rec.Code)
	}
}

// TestHealthProbeCacheStats checks /healthz surfaces cache counters once a
// cache is installed.
func TestHealthProbeCacheStats(t *testing.T) {
	s := testServer(t)
	if _, body := get(t, s, "/healthz"); body["probe_cache"] != nil {
		t.Fatal("probe_cache reported with no cache installed")
	}
	s.sys.SetProbeCache(probecache.New(probecache.Config{}))
	get(t, s, "/debug?q=saffron+scented+candle&strategy=BUWR")
	get(t, s, "/debug?q=saffron+scented+candle&strategy=BUWR")
	_, body := get(t, s, "/healthz")
	pc, ok := body["probe_cache"].(map[string]any)
	if !ok {
		t.Fatalf("no probe_cache in %v", body)
	}
	if pc["entries"].(float64) <= 0 || pc["hits"].(float64) <= 0 {
		t.Errorf("probe_cache stats = %v, want entries and hits > 0", pc)
	}
	for _, key := range []string{"evictions", "evictions_capacity", "evictions_stale"} {
		if _, present := pc[key]; !present {
			t.Errorf("probe_cache stats missing %q: %v", key, pc)
		}
	}
}

// TestAdmissionShedding saturates the admission semaphore and checks the
// overload path: 429, a Retry-After hint, and the shed counter moving. Once
// the slot frees, the same request must be admitted again.
func TestAdmissionShedding(t *testing.T) {
	s := testServer(t)
	s.MaxInflight = 1
	s.AdmissionWait = 5 * time.Millisecond

	release, ok := s.admit(context.Background())
	if !ok {
		t.Fatal("first admission into an idle server failed")
	}
	shedBefore := mShed.Value()
	rec, body := get(t, s, "/debug?q=saffron+scented+candle")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated /debug: status = %d (%v), want 429", rec.Code, body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	if body["error"] == "" {
		t.Error("429 without an error message")
	}
	if got := mShed.Value(); got != shedBefore+1 {
		t.Errorf("kwsdbg_shed_total = %v, want %v", got, shedBefore+1)
	}
	rec, _ = get(t, s, "/search?q=scented+candle")
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated /search: status = %d, want 429", rec.Code)
	}

	release()
	rec, body = get(t, s, "/debug?q=saffron+scented+candle")
	if rec.Code != http.StatusOK {
		t.Errorf("after release: status = %d (%v), want 200", rec.Code, body)
	}
	if mInflight.Value() != 0 {
		t.Errorf("kwsdbg_inflight = %v after all requests finished, want 0", mInflight.Value())
	}
}

// TestDebugBudgetParam drives the partial-result contract end to end: a
// starved budget yields HTTP 200 with incomplete=true, a reason, sql_executed
// within the budget, and the unclassified remainder listed — and the request
// parameter can only tighten the server-wide cap, never raise it.
func TestDebugBudgetParam(t *testing.T) {
	s := testServer(t)
	exhaustedBefore := mBudgetExhausted.With(core.ReasonProbeBudget).Value()
	rec, body := get(t, s, "/debug?q=saffron+scented+candle&strategy=RE&budget=1&cache=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("budget=1: status = %d (%v), want 200 with a partial result", rec.Code, body)
	}
	if body["incomplete"] != true || body["incomplete_reason"] != core.ReasonProbeBudget {
		t.Fatalf("budget=1: incomplete = %v / %v", body["incomplete"], body["incomplete_reason"])
	}
	stats := body["stats"].(map[string]any)
	if stats["sql_executed"].(float64) > 1 {
		t.Errorf("budget=1: sql_executed = %v, want <= 1", stats["sql_executed"])
	}
	if un, _ := body["unclassified"].([]any); len(un) == 0 {
		t.Errorf("budget=1: no unclassified queries in %v", body)
	}
	if got := mBudgetExhausted.With(core.ReasonProbeBudget).Value(); got != exhaustedBefore+1 {
		t.Errorf("kwsdbg_probe_budget_exhausted_total = %v, want %v", got, exhaustedBefore+1)
	}

	// A generous budget completes normally.
	rec, body = get(t, s, "/debug?q=saffron+scented+candle&strategy=RE&budget=100000&cache=0")
	if rec.Code != http.StatusOK || body["incomplete"] == true {
		t.Fatalf("budget=100000: status = %d, incomplete = %v", rec.Code, body["incomplete"])
	}

	// The request cannot raise the server-wide cap.
	s.ProbeBudget = 1
	rec, body = get(t, s, "/debug?q=saffron+scented+candle&strategy=RE&budget=100000&cache=0")
	if rec.Code != http.StatusOK || body["incomplete"] != true {
		t.Fatalf("server cap 1, budget=100000: status = %d, incomplete = %v (the param must not loosen the cap)",
			rec.Code, body["incomplete"])
	}
	if st := body["stats"].(map[string]any); st["sql_executed"].(float64) > 1 {
		t.Errorf("server cap 1: sql_executed = %v, want <= 1", st["sql_executed"])
	}
}

// TestGovernanceParamValidation rejects malformed deadline_ms and budget
// values outright; governance parameters must never fail open.
func TestGovernanceParamValidation(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{
		"/debug?q=candle&deadline_ms=abc",
		"/debug?q=candle&deadline_ms=0",
		"/debug?q=candle&deadline_ms=-50",
		"/debug?q=candle&deadline_ms=9223372036855", // overflows time.Duration
		"/debug?q=candle&budget=abc",
		"/debug?q=candle&budget=0",
		"/debug?q=candle&budget=-3",
	} {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status = %d (%v), want 400", path, rec.Code, body)
		}
	}
	// A generous deadline (clamped by the server timeout) completes normally.
	rec, body := get(t, s, "/debug?q=saffron+scented+candle&deadline_ms=60000")
	if rec.Code != http.StatusOK || body["incomplete"] == true {
		t.Errorf("deadline_ms=60000: status = %d, incomplete = %v", rec.Code, body["incomplete"])
	}
}
