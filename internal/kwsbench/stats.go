package kwsbench

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// tailQuantiles are the percentiles a tail timing may be reported at,
// highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailQuantile returns the highest percentile in tailQuantiles that has at
// least minBeyond of n samples beyond it, or the median when none has.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			return q
		}
	}
	return 0.5
}

// quantile returns the nearest-rank q-quantile of xs, which it sorts in
// place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promSample is one parsed series of the Prometheus text exposition.
type promSample struct {
	name, labels string
	value        float64
}

// promSnapshot is a parsed GET /metrics body.
type promSnapshot []promSample

// parseProm reads the text exposition format: one "name{labels} value" per
// line, comments skipped.
func parseProm(body string) promSnapshot {
	var out promSnapshot
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s := promSample{name: series, value: v}
		if b := strings.IndexByte(series, '{'); b >= 0 {
			s.name, s.labels = series[:b], strings.TrimSuffix(series[b+1:], "}")
		}
		out = append(out, s)
	}
	return out
}

// sum adds every series of the named metric whose labels contain each of
// the given label matchers (e.g. `reason="capacity"`).
func (p promSnapshot) sum(name string, matchers ...string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name != name {
			continue
		}
		ok := true
		for _, m := range matchers {
			if !strings.Contains(s.labels, m) {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// delta is after.sum - before.sum for one metric.
func delta(before, after promSnapshot, name string, matchers ...string) float64 {
	return after.sum(name, matchers...) - before.sum(name, matchers...)
}
