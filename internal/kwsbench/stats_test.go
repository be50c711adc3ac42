package kwsbench

import "testing"

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.999},
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{100, 0.9},
		{40, 0.75},
		{20, 0.5},
		{5, 0.5},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm(`# HELP kwsdbg_x help
# TYPE kwsdbg_x counter
kwsdbg_x 3
kwsdbg_ev_total{reason="capacity"} 4
kwsdbg_ev_total{reason="stale"} 1
kwsdbg_lat_seconds_bucket{le="+Inf"} 7
kwsdbg_lat_seconds_sum 0.25
`)
	before := parseProm("kwsdbg_x 1\n")
	for _, c := range []struct {
		got, want float64
	}{
		{p.sum("kwsdbg_x"), 3},
		{p.sum("kwsdbg_ev_total"), 5},
		{p.sum("kwsdbg_ev_total", `reason="stale"`), 1},
		{p.sum("kwsdbg_lat_seconds_sum"), 0.25},
		{p.sum("kwsdbg_missing"), 0},
		{delta(before, p, "kwsdbg_x"), 2},
	} {
		if c.got != c.want {
			t.Errorf("got %v, want %v", c.got, c.want)
		}
	}
}
