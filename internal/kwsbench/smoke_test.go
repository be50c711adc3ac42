package kwsbench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smallConfig runs a workload in seconds: scale 0.02, one setup, 20
// requests after a 20-request warm-up.
func smallConfig(trace bool) Config {
	return Config{Seed: 1, Trace: trace, Requests: 20, Scale: 0.02, Warmup: 20, SetupRepeats: 1}
}

// TestSmoke runs every workload end to end and traced at a small size and
// checks that each prints exactly the metrics BENCHMARK.json names, with
// their units, and that no response failed its check.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(Workloads))
	}
	for _, sw := range spec.Workloads {
		w := mustLookup(t, sw.Name)
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := smallConfig(trace)
			if trace {
				cfg.SpansPath = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed: %v",
					w.Name, trace, res.Correct, res.Failed, res.Attempted, res.Errors)
			}
			b, err := res.Summary()
			if err != nil {
				t.Fatal(err)
			}
			var sum struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(b, &sum); err != nil {
				t.Fatal(err)
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if trace {
				checkSpans(t, cfg.SpansPath)
			}
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", n+1, err)
		}
		if s.ID != n || s.Parent >= s.ID || s.End < s.Start {
			t.Fatalf("span line %d is malformed: %+v", n+1, s)
		}
		n++
	}
	if n == 0 {
		t.Errorf("%s holds no spans", path)
	}
}

// TestTracedCountsRepeat checks that two traced runs with the same seed
// report identical work counts.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{
		"core.probes", "core.sql_issued", "probecache.hit_ratio", "probecache.evictions",
		"probecache.suspects", "engine.plan_compiles", "invidx.builds", "engine.rows_scanned",
		"engine.sql_exec", "flight.events",
	}
	var runs []map[string]float64
	for i := 0; i < 2; i++ {
		res, err := Run(mustLookup(t, "debug-writes"), smallConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]float64{}
		for _, x := range res.Metrics {
			m[x.Name] = x.Value
		}
		runs = append(runs, m)
	}
	for _, name := range counts {
		if runs[0][name] != runs[1][name] {
			t.Errorf("%s: %v then %v", name, runs[0][name], runs[1][name])
		}
	}
	if runs[0]["invidx.builds"] == 0 || runs[0]["probecache.suspects"] == 0 {
		t.Errorf("debug-writes traced run rebuilt no index or suspected no verdict: %v", runs[0])
	}
}
