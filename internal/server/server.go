// Package server exposes the debugger and the search operation over HTTP as
// JSON, so the system can back a search box the way the paper's introduction
// frames it (e-commerce sites suppressing "no results found") while the
// debugging endpoint serves the developers behind it.
//
// Endpoints:
//
//	GET  /debug?q=saffron+scented+candle[&strategy=SBH][&sql=1][&trace=1][&workers=4][&cache=0][&deadline_ms=500][&budget=200][&probe_path=prepared|text|bitset][&ledger=1]
//	GET  /debug/runs
//	GET  /debug/flight[?req=000042]
//	GET  /search?q=red+candle[&k=10]
//	POST /write          {"sql": "INSERT INTO ..."}
//	GET  /metrics
//	GET  /healthz
//
// All responses are JSON except /metrics (Prometheus text exposition);
// errors use {"error": "..."} with a 4xx/5xx status. With trace=1 the /debug
// response embeds the run's phase tree under "trace": per-phase wall clock
// plus the Phase 3 probe accounting, rendered from the run's Stats. Every
// request is logged structurally through log/slog with a request ID, status,
// and duration.
//
// Observability: every /debug run feeds the process-wide flight recorder
// (internal/obs/flight) — a fixed-size ring of probe-lifecycle events.
// /debug/runs lists recent run summaries from the ring, /debug/flight dumps
// the raw ring (optionally filtered to one request ID), and 5xx error bodies
// attach the failing request's events so the evidence survives the response.
// With ledger=1 (requires Server.LedgerDir) the run's complete event stream
// plus its summary are written as a JSONL ledger for offline analysis with
// cmd/kwstrace; the response carries the file in an X-Kwsdbg-Ledger header.
//
// Writes: POST /write executes one INSERT against the live engine. The
// engine attributes the write to its per-table/per-term version vector, so
// only cached artifacts whose footprints intersect the touched table go
// suspect; everything else keeps serving. The response reports the rows
// inserted, the new data version, and the probe cache's suspect/repair
// counters so a churn workload can watch invalidation stay proportional.
//
// Resource governance: /debug and /search pass through an admission
// semaphore (Server.MaxInflight) and are shed with 429 + Retry-After when
// the server is saturated. deadline_ms and budget bound one request's
// probing; when either runs out the response is still HTTP 200, with
// "incomplete": true and the partial classification (see internal/report).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/core"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/obs"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/report"
)

// HTTP-layer metrics. The path label is restricted to the fixed endpoint set
// (unknown paths collapse to "other") so cardinality stays bounded.
var (
	mHTTPRequests = obs.Default.CounterVec("kwsdbg_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "path", "status")
	mHTTPSeconds = obs.Default.HistogramVec("kwsdbg_http_request_seconds",
		"HTTP request latency by endpoint.", nil, "path")
	mHTTPInFlight = obs.Default.Gauge("kwsdbg_http_in_flight",
		"Requests currently being served.")
	mWrites = obs.Default.Counter("kwsdbg_writes_total",
		"INSERT statements applied through POST /write.")
	mWriteRows = obs.Default.Counter("kwsdbg_write_rows_total",
		"Rows inserted through POST /write.")
	mWriteErrors = obs.Default.Counter("kwsdbg_write_errors_total",
		"POST /write requests rejected (parse error, unknown table, bad value).")
)

// nextRequestID numbers requests process-wide for log correlation.
var nextRequestID atomic.Int64

// Server wires a debugger into an http.Handler.
type Server struct {
	sys *core.System
	mux *http.ServeMux
	// Timeout bounds each request's probing work; zero means no bound.
	Timeout time.Duration
	// Workers is the default probe concurrency for /debug requests; <= 1
	// probes serially. Requests override it with ?workers=N.
	Workers int
	// Logger receives one structured line per request plus response-encoding
	// failures; nil means slog.Default().
	Logger *slog.Logger
	// MaxInflight caps how many /debug and /search requests may run probing
	// work concurrently; <= 0 disables admission control. Requests beyond the
	// cap wait up to AdmissionWait for a slot and are then shed with 429.
	MaxInflight int
	// AdmissionWait bounds how long an over-limit request queues for an
	// admission slot; <= 0 means DefaultAdmissionWait.
	AdmissionWait time.Duration
	// ProbeBudget is the server-wide cap on probes per /debug request; <= 0
	// means unlimited. Requests can tighten it with ?budget=N but never
	// exceed it.
	ProbeBudget int
	// Recorder is the flight-event ring every /debug run records into. New
	// installs a default-size ring; replace it before serving to resize.
	Recorder *flight.Recorder
	// LedgerDir enables ?ledger=1: completed runs write their JSONL event
	// ledger under this directory. Empty leaves ledgers off (requests asking
	// for one get a 400).
	LedgerDir string

	semOnce sync.Once
	sem     chan struct{}
}

// New builds the handler around a ready system.
func New(sys *core.System) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), Timeout: 30 * time.Second,
		Recorder: flight.NewRecorder(0)}
	s.mux.HandleFunc("/debug", s.handleDebug)
	s.mux.HandleFunc("/debug/runs", s.handleRuns)
	s.mux.HandleFunc("/debug/flight", s.handleFlight)
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/write", s.handleWrite)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/metrics", obs.Default.Handler())
	return s
}

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// statusWriter captures the status code and body size for logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// metricPath collapses unknown paths so the path label stays low-cardinality.
func metricPath(p string) string {
	switch p {
	case "/debug", "/debug/runs", "/debug/flight", "/search", "/write", "/healthz", "/metrics":
		return p
	default:
		return "other"
	}
}

// ServeHTTP implements http.Handler: logging and metrics middleware around
// the endpoint mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := fmt.Sprintf("%06d", nextRequestID.Add(1))
	start := time.Now()
	mHTTPInFlight.Add(1)
	defer mHTTPInFlight.Add(-1)

	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	sw.Header().Set("X-Request-ID", id)
	// The ID rides the context so deeper layers (engine retry logging, the
	// flight recorder) can attribute their events to this request.
	r = r.WithContext(obs.WithRequestID(r.Context(), id))
	s.mux.ServeHTTP(sw, r)

	elapsed := time.Since(start)
	path := metricPath(r.URL.Path)
	mHTTPRequests.With(path, strconv.Itoa(sw.status)).Inc()
	mHTTPSeconds.With(path).Observe(elapsed.Seconds())
	q := r.URL.Query()
	s.logger().LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("request_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("query", q.Get("q")),
		slog.String("strategy", q.Get("strategy")),
		slog.Int("status", sw.status),
		slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
		slog.Int("bytes", sw.bytes),
	)
}

func (s *Server) context(r *http.Request) (context.Context, context.CancelFunc) {
	if s.Timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.Timeout)
}

// writeJSON marshals v first so a failure becomes a clean 500 instead of a
// truncated 200, sets Content-Type before any write, and logs (rather than
// drops) errors writing the response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := jsonBody(v)
	if err != nil {
		s.logger().Error("encode response", slog.String("error", err.Error()))
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.logger().Warn("write response", slog.String("error", err.Error()))
	}
}

func jsonBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	body := map[string]any{"error": err.Error()}
	// Server-side failures attach the request's flight events: by the time
	// an operator reads the 5xx the ring may have wrapped, so the evidence
	// travels with the response.
	if status >= 500 && s.Recorder != nil {
		if evs := s.Recorder.Snapshot(obs.RequestID(r.Context())); len(evs) > 0 {
			body["flight"] = flightJSON(evs)
		}
	}
	s.writeJSON(w, status, body)
}

// flightEventJSON is the wire form of one flight event in /debug/flight and
// 5xx bodies; it matches the ledger's event schema minus the envelope.
type flightEventJSON struct {
	Seq   uint64 `json:"seq"`
	Req   string `json:"req,omitempty"`
	Kind  string `json:"kind"`
	Node  int32  `json:"node"`
	Probe string `json:"probe,omitempty"`
	Alive bool   `json:"alive,omitempty"`
	DurNS int64  `json:"dur_ns,omitempty"`
	Cause string `json:"cause,omitempty"`
}

func flightJSON(evs []flight.Event) []flightEventJSON {
	out := make([]flightEventJSON, len(evs))
	for i, ev := range evs {
		out[i] = flightEventJSON{
			Seq: ev.Seq, Req: ev.Req, Kind: ev.Kind.String(), Node: ev.Node,
			Probe: ev.Probe, Alive: ev.Alive, DurNS: int64(ev.Dur), Cause: ev.Cause,
		}
	}
	return out
}

// keywords parses the q parameter into keyword fields.
func keywords(r *http.Request) ([]string, error) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		return nil, fmt.Errorf("missing q parameter")
	}
	return strings.Fields(q), nil
}

// maxDeadlineMS is the largest deadline_ms a time.Duration can hold.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	kws, err := keywords(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	strat := core.SBH
	if name := r.URL.Query().Get("strategy"); name != "" {
		strat, err = parseStrategy(name)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
	}
	workers := s.Workers
	if raw := r.URL.Query().Get("workers"); raw != "" {
		workers, err = strconv.Atoi(raw)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad workers parameter %q (want an integer)", raw))
			return
		}
		// Out-of-range values are clamped into [1, core.MaxWorkers] rather
		// than rejected: the cap is a server-side resource bound, not part of
		// the request contract.
		workers = core.ClampWorkers(workers)
	}
	// deadline_ms bounds this request's probing wall clock; the server
	// timeout remains the ceiling.
	var deadline time.Duration
	if raw := r.URL.Query().Get("deadline_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		// Above maxDeadlineMS the conversion to a Duration would wrap
		// negative, and a negative Deadline means no deadline at all.
		if err != nil || ms <= 0 || int64(ms) > maxDeadlineMS {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad deadline_ms parameter %q (want an integer in [1, %d])", raw, maxDeadlineMS))
			return
		}
		deadline = time.Duration(ms) * time.Millisecond
		if s.Timeout > 0 && deadline > s.Timeout {
			deadline = s.Timeout
		}
	}
	// budget tightens the server-wide probe allowance; it can never raise it.
	budget := s.ProbeBudget
	if raw := r.URL.Query().Get("budget"); raw != "" {
		b, err := strconv.Atoi(raw)
		if err != nil || b <= 0 {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad budget parameter %q (want a positive integer)", raw))
			return
		}
		if budget <= 0 || b < budget {
			budget = b
		}
	}
	// probe_path selects the Phase 3 execution path: compiled engine
	// handles (the default), the rendered-SQL text path, or the bitset
	// bitmap-semi-join path. The outputs are identical; the knob exists for
	// benchmarking and debugging.
	textProbes, bitsetProbes := false, false
	switch raw := r.URL.Query().Get("probe_path"); raw {
	case "", "prepared":
	case "text":
		textProbes = true
	case "bitset":
		bitsetProbes = true
	default:
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad probe_path parameter %q (want prepared, text, or bitset)", raw))
		return
	}
	// ledger=1 additionally captures the run's full event stream and writes
	// it as a JSONL ledger; it needs a configured directory.
	wantLedger := r.URL.Query().Get("ledger") == "1"
	if wantLedger && s.LedgerDir == "" {
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("ledger=1 requires the server to be started with a ledger directory"))
		return
	}
	release, ok := s.admit(r.Context())
	if !ok {
		s.shed(w, r)
		return
	}
	defer release()
	ctx, cancel := s.context(r)
	defer cancel()
	// One flight log per run: it stamps events with the request ID and, for
	// ledger runs, keeps the private copy the JSONL file is written from.
	fl := flight.NewLog(s.Recorder, obs.RequestID(ctx), wantLedger)
	ctx = flight.NewContext(ctx, fl)
	start := clock.Now()
	out, err := s.sys.DebugContext(ctx, kws, core.Options{
		Strategy:     strat,
		Workers:      workers,
		BypassCache:  r.URL.Query().Get("cache") == "0",
		TextProbes:   textProbes,
		BitsetProbes: bitsetProbes,
		Deadline:     deadline,
		ProbeBudget:  budget,
	})
	elapsed := clock.Since(start)
	if err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	if out.Incomplete {
		mBudgetExhausted.With(out.IncompleteReason).Inc()
	}
	sum := s.runSummary(fl, kws, workers, budget, out)
	if s.Recorder != nil {
		s.Recorder.AddRun(sum)
	}
	if wantLedger {
		if path, lerr := flight.WriteLedgerFile(s.LedgerDir, sum.Req, fl.Events(), &sum); lerr != nil {
			s.logger().Warn("ledger write failed",
				slog.String("request_id", sum.Req), slog.String("error", lerr.Error()))
		} else {
			w.Header().Set("X-Kwsdbg-Ledger", path)
		}
	}
	opts := report.JSONOptions{ShowSQL: r.URL.Query().Get("sql") == "1"}
	if r.URL.Query().Get("trace") == "1" {
		opts.Trace = &report.Trace{Elapsed: elapsed, Workers: core.ClampWorkers(workers)}
	}
	var buf bytes.Buffer
	if err := report.JSONOpts(&buf, out, opts); err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := io.Copy(w, &buf); err != nil {
		s.logger().Warn("write response", slog.String("error", err.Error()))
	}
}

// runSummary digests a finished debug run for the recent-runs ring and the
// ledger's closing record.
func (s *Server) runSummary(fl *flight.Log, kws []string, workers, budget int, out *core.Output) flight.RunSummary {
	st := out.Stats
	return flight.RunSummary{
		Req:         fl.Req(),
		UnixNS:      clock.Now().UnixNano(),
		Keywords:    kws,
		Strategy:    st.Strategy.String(),
		Workers:     core.ClampWorkers(workers),
		DataVersion: s.sys.Engine().DataVersion(),

		MapMS:      ms(st.MapTime),
		PruneMS:    ms(st.PruneTime),
		MTNMS:      ms(st.MTNTime),
		TraverseMS: ms(st.TraverseTime),

		Probes:    st.SQLExecuted,
		CacheHits: st.CacheHits,
		SQLIssued: st.SQLIssued(),
		SQLMS:     ms(st.SQLTime),

		PlanCompiles:  st.PlanCompiles,
		CandSetHits:   st.CandSetHits,
		CandSetMisses: st.CandSetMisses,

		BudgetLimit:      budget,
		Incomplete:       out.Incomplete,
		IncompleteReason: out.IncompleteReason,

		Answers:    len(out.Answers),
		NonAnswers: len(out.NonAnswers),
		Events:     fl.Count(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// handleRuns lists the recorder's retained run summaries, most recent first.
// It answers from the in-memory ring, so it works with no ledger configured.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	runs := []flight.RunSummary{}
	if s.Recorder != nil {
		runs = append(runs, s.Recorder.Runs()...)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"runs": runs})
}

// handleFlight dumps the flight ring in sequence order, optionally filtered
// to one request ID with ?req=.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	var evs []flight.Event
	if s.Recorder != nil {
		evs = s.Recorder.Snapshot(r.URL.Query().Get("req"))
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"events": flightJSON(evs)})
}

// searchResponse is the /search JSON schema. When the query has no exact
// matches, partials carries the maximal sub-queries' results (the paper's
// Figure 1 behaviour) with the keywords each one covers.
type searchResponse struct {
	Keywords []string        `json:"keywords"`
	Missing  []string        `json:"missing,omitempty"`
	Results  []searchResult  `json:"results"`
	Partials []partialResult `json:"partials,omitempty"`
}

type searchResult struct {
	Score float64           `json:"score"`
	Tree  string            `json:"tree"`
	Tuple map[string]string `json:"tuple"`
}

type partialResult struct {
	Covered []string `json:"covered"`
	searchResult
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	kws, err := keywords(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admit(r.Context())
	if !ok {
		s.shed(w, r)
		return
	}
	defer release()
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k <= 0 || k > 1000 {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad k parameter %q", raw))
			return
		}
	}
	results, partials, missing, err := s.sys.SearchPartial(kws, k)
	if err != nil {
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	conv := func(res core.SearchResult) searchResult {
		tuple := make(map[string]string, len(res.Tuple))
		for i, v := range res.Tuple {
			tuple[res.Columns[i]] = v.String()
		}
		return searchResult{Score: res.Score, Tree: res.Query.Tree, Tuple: tuple}
	}
	resp := searchResponse{Keywords: kws, Missing: missing, Results: []searchResult{}}
	for _, res := range results {
		resp.Results = append(resp.Results, conv(res))
	}
	for _, p := range partials {
		resp.Partials = append(resp.Partials, partialResult{Covered: p.Covered, searchResult: conv(p.SearchResult)})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeRequest is the POST /write body.
type writeRequest struct {
	SQL string `json:"sql"`
}

// handleWrite applies one INSERT to the live engine. The engine's version
// vector attributes the write to its table and tokens before the rows become
// visible, so a debug run racing this request either sees the rows or sees
// the intersecting cache entries go suspect — never a stale hit.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("write requires POST"))
		return
	}
	var req writeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		mWriteErrors.Inc()
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad write body: %w", err))
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		mWriteErrors.Inc()
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("missing sql field"))
		return
	}
	rows, err := s.sys.Engine().Exec(req.SQL)
	if err != nil {
		mWriteErrors.Inc()
		s.writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	mWrites.Inc()
	mWriteRows.Add(float64(rows))
	body := map[string]any{
		"rows_inserted": rows,
		"data_version":  s.sys.Engine().DataVersion(),
	}
	if c := s.sys.ProbeCache(); c != nil {
		st := c.Snapshot()
		body["probe_cache"] = map[string]any{
			"entries":  st.Entries,
			"suspects": st.Suspects,
			"repairs":  st.Repairs,
		}
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":        "ok",
		"lattice_nodes": s.sys.Lattice().Len(),
		"levels":        s.sys.Lattice().Levels(),
		"tuples":        s.sys.Engine().Database().TotalRows(),
	}
	if c := s.sys.ProbeCache(); c != nil {
		st := c.Snapshot()
		body["probe_cache"] = map[string]any{
			"entries":            st.Entries,
			"hits":               st.Hits,
			"misses":             st.Misses,
			"evictions":          st.Evictions,
			"evictions_capacity": st.EvictionsCapacity,
			"evictions_stale":    st.EvictionsStale,
			"suspects":           st.Suspects,
			"repairs":            st.Repairs,
		}
	}
	// Both plan caches: the debugger's probe-handle cache and the engine's
	// text-path cache, keyed in the JSON by their metric path label.
	plans := map[string]any{}
	for _, c := range []*engine.PreparedCache{s.sys.PreparedCache(), s.sys.Engine().PlanCache()} {
		st := c.Stats()
		plans[st.Path] = map[string]any{
			"entries":   st.Entries,
			"hits":      st.Hits,
			"misses":    st.Misses,
			"evictions": st.Evictions,
		}
	}
	body["plan_cache"] = plans
	s.writeJSON(w, http.StatusOK, body)
}

func parseStrategy(name string) (core.Strategy, error) {
	switch strings.ToUpper(name) {
	case "BU":
		return core.BU, nil
	case "TD":
		return core.TD, nil
	case "BUWR":
		return core.BUWR, nil
	case "TDWR":
		return core.TDWR, nil
	case "SBH":
		return core.SBH, nil
	case "RE":
		return core.RE, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", name)
	}
}
