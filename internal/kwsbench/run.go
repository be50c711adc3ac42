// Package kwsbench is the serving-stack benchmark: it builds a fresh DBLife
// environment per workload, serves it through server.New -> core.System ->
// engine on a loopback listener, drives it with a closed loop of HTTP
// clients, checks every response against a reference, and reports
// end-to-end metrics. A separate traced run reports per-layer metrics.
package kwsbench

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"time"

	"kwsdbg/internal/core"
)

// clients is the closed loop's client count, one keep-alive connection each.
const clients = 2

// defaultSetupRepeats is how many fresh environments setup_s is the median of.
const defaultSetupRepeats = 5

// Config selects and sizes one benchmark run.
type Config struct {
	Seed int64
	// Seconds is the timed window of the untraced run; the traced run sends
	// Workload.TracedPerSecond requests per second of it.
	Seconds float64
	// Trace runs the traced per-layer run instead of the end-to-end run.
	Trace bool
	// SpansPath, when set, receives the traced run's spans as JSONL.
	SpansPath string

	// Requests, when positive, replaces the timed window (and the traced
	// request count) with this many requests. Scale, Warmup and
	// SetupRepeats override the workload's values when positive. Tests use
	// them to run every workload in seconds.
	Requests     int
	Scale        float64
	Warmup       int
	SetupRepeats int
}

// Host records what the numbers were measured on.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost describes this process.
func CurrentHost(seed int64) Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		Seed:       seed,
		GoVersion:  runtime.Version(),
	}
}

// Metric is one named measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one workload run.
type Result struct {
	Workload  string `json:"workload"`
	Host      Host   `json:"host"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the benchmark's named metrics: end-to-end ones for the
	// untraced run, per-layer ones for the traced run.
	Metrics []Metric `json:"metrics"`
	// Info holds context for reading the metrics, such as sample counts and
	// reference-check time; it is printed but is not a metric.
	Info []Metric `json:"info"`
	// Errors holds the first few failure messages.
	Errors []string `json:"errors,omitempty"`
}

func (r *Result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{name, v, unit})
}

func (r *Result) info(name string, v float64, unit string) {
	r.Info = append(r.Info, Metric{name, v, unit})
}

// Print writes one "workload metric value unit" line per info item and
// metric.
func (r *Result) Print(w io.Writer) {
	for _, m := range append(append([]Metric(nil), r.Info...), r.Metrics...) {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, formatValue(m.Value), m.Unit)
	}
	fmt.Fprintf(w, "%s error_ratio %s failed/attempted\n", r.Workload,
		formatValue(ratio(float64(r.Failed), float64(r.Attempted))))
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s error %s\n", r.Workload, e)
	}
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// Summary is the one-line JSON result: correct, attempted, failed, and the
// metrics keyed by name.
func (r *Result) Summary() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// Run runs one workload: the end-to-end run, or with cfg.Trace the traced
// run.
func Run(w Workload, cfg Config) (*Result, error) {
	if cfg.Scale > 0 {
		w.Scale = cfg.Scale
	}
	if cfg.Warmup > 0 {
		w.Warmup = cfg.Warmup
	}
	if cfg.SetupRepeats <= 0 {
		cfg.SetupRepeats = defaultSetupRepeats
	}
	if cfg.Trace {
		return runTraced(w, cfg)
	}
	return runE2E(w, cfg)
}

// session is one environment with its plan, checker and references.
type session struct {
	w    Workload
	e    *env
	plan *Plan
	chk  *checker
	// refs holds the reference of every query checked so far.
	refs map[int]any
	// refSys is the cacheless System /search is checked against.
	refSys *core.System
}

func newSession(w Workload, cfg Config) (*session, time.Duration, error) {
	e, setup, err := buildEnv(w.Scale)
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, e: e, plan: newPlan(w, cfg.Seed, e.eng), chk: newChecker()}
	if w.Read == Search {
		if s.refSys, err = core.NewSystem(e.eng, e.sys.Lattice()); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	// Q1-Q10 references are computed at setup; long-tail ones after the
	// window, for the queries actually sent.
	if !w.LongTail {
		all := make([]int, len(s.plan.queries))
		for i := range all {
			all[i] = i
		}
		if s.refs, err = s.references(all); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	return s, setup, nil
}

func (s *session) close() {
	if s.refSys != nil {
		s.refSys.DB().Close()
	}
	s.e.close()
}

func (s *session) references(queries []int) (map[int]any, error) {
	return references(queries, func(q int) (any, error) {
		kws := s.plan.Keywords(q)
		if s.w.Read == Search {
			return searchReference(s.refSys, kws, 10)
		}
		return debugReference(s.e.sys, kws)
	})
}

// finish checks every response against the references: long-tail
// references are computed now, and on a workload with writes the
// references are recomputed on the final data, which must not have moved.
// It returns the time spent computing references.
func (s *session) finish(res *Result, writes int) (time.Duration, error) {
	start := time.Now()
	switch {
	case s.w.LongTail:
		refs, err := s.references(s.chk.queries())
		if err != nil {
			return 0, err
		}
		s.refs = refs
	case s.w.WriteEvery > 0:
		after, err := s.references(s.chk.queries())
		if err != nil {
			return 0, err
		}
		for q, ref := range after {
			if !reflect.DeepEqual(ref, s.refs[q]) {
				s.chk.mu.Lock()
				s.chk.failLocked(max(writes, 1), fmt.Sprintf("reference for %v moved under writes: a write was not answer-preserving",
					s.plan.Keywords(q)))
				s.chk.mu.Unlock()
				break
			}
		}
	}
	took := time.Since(start)
	s.chk.verify(s.refs, func(q int) string { return strings.Join(s.plan.Keywords(q), " ") })
	res.Attempted, res.Failed = s.chk.attempted, s.chk.failed
	res.Correct = res.Failed == 0
	res.Errors = s.chk.errs
	return took, nil
}

func runE2E(w Workload, cfg Config) (*Result, error) {
	s, first, err := newSession(w, cfg)
	if err != nil {
		return nil, err
	}
	res, speed, err := measure(s, cfg)
	s.close()
	if err != nil {
		return nil, err
	}
	// The other set-up samples come after the heap is measured, because
	// every environment built stays in the heap (see env.close).
	setups := []float64{first.Seconds()}
	for i := 1; i < cfg.SetupRepeats; i++ {
		e, d, err := buildEnv(w.Scale)
		if err != nil {
			return nil, err
		}
		e.close()
		setups = append(setups, d.Seconds())
	}
	setup := median(setups)
	res.info("raw_setup_s", setup, "s")
	res.Metrics = append([]Metric{{"setup_s", setup * speed, "s"}}, res.Metrics...)
	return res, nil
}

// measure runs the warm-up and the timed window on s, checks every
// response, and returns every end-to-end metric but setup_s, with the
// host's speed.
func measure(s *session, cfg Config) (*Result, float64, error) {
	res := &Result{Workload: s.w.Name, Host: CurrentHost(cfg.Seed)}
	l := newLoop(s.e.ts.URL, s.plan, s.chk, clients)
	defer l.close()
	warm := s.plan.Warmup()
	l.run(warm, time.Time{})

	var win window
	var speeds []float64
	if cfg.Requests > 0 {
		speeds = append(speeds, calibrate())
		win = l.run(warm+cfg.Requests, time.Time{})
	} else {
		// Load slices of loadSlice, the last one shortened, fill cfg.Seconds.
		for left := time.Duration(cfg.Seconds * float64(time.Second)); left > 0; left -= loadSlice {
			speeds = append(speeds, calibrate())
			win.add(l.run(0, time.Now().Add(min(left, loadSlice))))
		}
	}
	speed := median(speeds)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	refTime, err := s.finish(res, len(win.writes))
	if err != nil {
		return nil, 0, err
	}
	q := tailQuantile(len(win.reads))
	if q > 0.99 {
		q = 0.99
	}
	res.info("requests", float64(win.requests()), "count")
	res.info("reads", float64(len(win.reads)), "count")
	res.info("read_tail_quantile", q, "quantile")
	if len(win.writes) > 0 {
		res.info("writes", float64(len(win.writes)), "count")
		res.info("write_p50_ms", median(win.writes), "ms")
	}
	res.info("reference_s", refTime.Seconds(), "s")
	p50, p99 := median(win.reads), quantile(win.reads, q)
	rps := float64(win.requests()) / win.elapsed.Seconds()
	res.info("host_speed", speed, "nominal")
	res.info("raw_read_p50_ms", p50, "ms")
	res.info("raw_read_p99_ms", p99, "ms")
	res.info("raw_rps", rps, "req/s")

	// A host at speed s takes 1/s as long as a nominal one, so times are
	// multiplied by s and rates divided by it.
	res.add("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MiB")
	res.add("read_p50_ms", p50*speed, "ms")
	res.add("read_p99_ms", p99*speed, "ms")
	res.add("rps", rps/speed, "req/s")
	return res, speed, nil
}
