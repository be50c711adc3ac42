package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Errorf("Value = %v, want 3.5", got)
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Error("re-registering a counter must return the same instance")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("Value = %v, want 6", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("probes_total", "help", "strategy")
	v.With("SBH").Add(5)
	v.With("BU").Inc()
	v.With("SBH").Inc()
	if got := v.With("SBH").Value(); got != 6 {
		t.Errorf(`With("SBH") = %v, want 6`, got)
	}
	if got := v.With("BU").Value(); got != 1 {
		t.Errorf(`With("BU") = %v, want 1`, got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Errorf("Sum = %v, want 56.05", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 56.05`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `h_bucket{le="1"} 1`) {
		t.Errorf("observation at the bound must land in its bucket:\n%s", sb.String())
	}
}

// TestExpositionGolden pins the full text format: ordering, HELP/TYPE lines,
// label rendering, and histogram expansion.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b counts things").Add(2)
	g := r.GaugeVec("a_gauge", "a gauge", "kind")
	g.With(`x"y`).Set(1.5)
	g.With("a\\b\nc").Set(2)
	h := r.Histogram("c_seconds", "c latency", []float64{0.5})
	h.Observe(0.25)
	h.Observe(0.75)

	want := `# HELP a_gauge a gauge
# TYPE a_gauge gauge
a_gauge{kind="a\\b\nc"} 2
a_gauge{kind="x\"y"} 1.5
# HELP b_total b counts things
# TYPE b_total counter
b_total 2
# HELP c_seconds c latency
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 1
c_seconds_bucket{le="+Inf"} 2
c_seconds_sum 1
c_seconds_count 2
`
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestWithExistingChildAllocs pins the cost of resolving an existing child,
// which every Debug run and HTTP request pays several times: rendering the
// label key is its one allocation.
func TestWithExistingChildAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("h_seconds", "help", nil, "phase")
	c := r.CounterVec("c_total", "help", "strategy", "status")
	h.With("prune").Observe(1)
	c.With("SBH", "ok").Inc()
	for _, tc := range []struct {
		name string
		with func()
	}{
		{"one label", func() { h.With("prune") }},
		{"two labels", func() { c.With("SBH", "ok") }},
	} {
		if got := testing.AllocsPerRun(1000, tc.with); got > 1 {
			t.Errorf("%s: With on an existing child allocates %v times, want at most 1", tc.name, got)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	v := r.CounterVec("v_total", "help", "k")
	h := r.Histogram("h_seconds", "help", []float64{0.5})
	g := r.Gauge("g", "help")
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				v.With("a").Inc()
				h.Observe(0.25)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Errorf("counter = %v, want %d", got, workers*each)
	}
	if got := v.With("a").Value(); got != workers*each {
		t.Errorf("vec counter = %v, want %d", got, workers*each)
	}
	if h.Count() != workers*each {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*each)
	}
	if got := g.Value(); got != workers*each {
		t.Errorf("gauge = %v, want %d", got, workers*each)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestSamples(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("b_total", "help", "s").With("x").Add(3)
	r.Gauge("a", "help").Set(7)
	h := r.Histogram("c_seconds", "help", []float64{1})
	h.Observe(0.5)
	got := r.Samples()
	want := []Sample{
		{"a", "", 7},
		{"b_total", `s="x"`, 3},
		{"c_seconds_count", "", 1},
		{"c_seconds_sum", "", 0.5},
	}
	if len(got) != len(want) {
		t.Fatalf("Samples = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Samples[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
