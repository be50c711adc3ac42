// Package obs is the zero-dependency observability layer: counters, gauges,
// and fixed-bucket histograms with Prometheus text exposition. Every layer of
// the debugger reports into it — the paper's evaluation is an accounting
// argument over SQL probes saved and work reused, so probe counts, phase
// timings, and hot-path latencies are first-class runtime outputs here, not
// post-hoc instrumentation.
//
// Metrics register themselves in a Registry (usually Default) at package
// init; registration is idempotent, so tests and multiple System instances
// share one family per name. All metric operations are lock-free atomic
// updates and safe for concurrent use.
//
//go:generate go run kwsdbg/cmd/obsgen
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 updated with compare-and-swap on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ f atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.f.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.f.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.f.Value() }

// Gauge is a value that can go up and down.
type Gauge struct{ f atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.f.Set(v) }

// Add adjusts the value by v (which may be negative).
func (g *Gauge) Add(v float64) { g.f.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.f.Value() }

// Histogram counts observations into fixed buckets and tracks their sum.
type Histogram struct {
	upper  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomicFloat
	total  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)                   // i == len(upper) is the +Inf bucket
	h.total.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// TimeBuckets is the default latency bucket layout in seconds, spanning the
// microsecond-scale inverted-index lookups up to multi-second traversals.
var TimeBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with zero or more label dimensions. Unlabeled
// metrics are the single child under the empty label key.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]any // label key -> *Counter | *Gauge | *Histogram
}

func (f *family) child(key string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	var m any
	switch f.typ {
	case counterType:
		m = &Counter{}
	case gaugeType:
		m = &Gauge{}
	default:
		m = &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	f.children[key] = m
	return m
}

// labelKey renders label name/value pairs in exposition syntax, which doubles
// as the child map key.
func labelKey(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Registry holds metric families and renders them in Prometheus text format.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Default is the process-wide registry every package-level metric uses.
var Default = NewRegistry()

// getFamily returns the named family, creating it on first use. Re-requesting
// a name is idempotent; a type or label-arity mismatch panics, because it is
// a programming error that would silently split a metric.
func (r *Registry) getFamily(name, help string, typ metricType, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets,
		children: make(map[string]any)}
	r.fams[name] = f
	return f
}

// Counter returns the unlabeled counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getFamily(name, help, counterType, nil, nil).child("").(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getFamily(name, help, gaugeType, nil, nil).child("").(*Gauge)
}

// Histogram returns the unlabeled histogram with the given name. Nil buckets
// default to TimeBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = TimeBuckets
	}
	return r.getFamily(name, help, histogramType, nil, buckets).child("").(*Histogram)
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.getFamily(name, help, counterType, labels, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(labelKey(v.f.labels, values)).(*Counter)
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.getFamily(name, help, gaugeType, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(labelKey(v.f.labels, values)).(*Gauge)
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given name. Nil
// buckets default to TimeBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = TimeBuckets
	}
	return &HistogramVec{r.getFamily(name, help, histogramType, labels, buckets)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(labelKey(v.f.labels, values)).(*Histogram)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and children in sorted order so output is
// stable for golden tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := f.children[k]
			switch f.typ {
			case counterType:
				writeSample(&sb, f.name, k, "", m.(*Counter).Value())
			case gaugeType:
				writeSample(&sb, f.name, k, "", m.(*Gauge).Value())
			default:
				h := m.(*Histogram)
				cum := uint64(0)
				for i, ub := range h.upper {
					cum += h.counts[i].Load()
					writeSample(&sb, f.name+"_bucket", k, `le="`+formatFloat(ub)+`"`, float64(cum))
				}
				writeSample(&sb, f.name+"_bucket", k, `le="+Inf"`, float64(h.Count()))
				writeSample(&sb, f.name+"_sum", k, "", h.Sum())
				writeSample(&sb, f.name+"_count", k, "", float64(h.Count()))
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeSample(sb *strings.Builder, name, labels, extra string, v float64) {
	sb.WriteString(name)
	if labels != "" || extra != "" {
		sb.WriteByte('{')
		sb.WriteString(labels)
		if labels != "" && extra != "" {
			sb.WriteByte(',')
		}
		sb.WriteString(extra)
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
}

// Handler returns an http.Handler serving the registry in exposition format —
// the body behind GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Sample is one scalar reading, for snapshots outside the HTTP path (the
// bench harness prints these so its tables and /metrics agree).
type Sample struct {
	Name   string
	Labels string // exposition syntax without braces, "" when unlabeled
	Value  float64
}

// Samples returns a stable-sorted scalar view of the registry: counters and
// gauges as-is, histograms as their _count and _sum.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var out []Sample
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := f.children[k]
			switch f.typ {
			case counterType:
				out = append(out, Sample{f.name, k, m.(*Counter).Value()})
			case gaugeType:
				out = append(out, Sample{f.name, k, m.(*Gauge).Value()})
			default:
				h := m.(*Histogram)
				out = append(out, Sample{f.name + "_count", k, float64(h.Count())})
				out = append(out, Sample{f.name + "_sum", k, h.Sum()})
			}
		}
		f.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}
