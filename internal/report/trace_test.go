package report

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"kwsdbg/internal/core"
)

// wireSpan is the trace node as a client decodes it.
type wireSpan struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs"`
	Children   []wireSpan     `json:"children"`
}

// micros reads a millisecond JSON value back as whole microseconds.
func micros(v any) int64 {
	f, _ := v.(float64)
	return int64(math.Round(f * 1000))
}

func renderTrace(t *testing.T, out *core.Output, tr *Trace) (*wireSpan, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := JSONOpts(&buf, out, JSONOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Trace *wireSpan      `json:"trace"`
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.Bytes())
	}
	if got.Trace == nil {
		t.Fatalf("no trace in output:\n%s", buf.Bytes())
	}
	return got.Trace, got.Stats
}

func attrNames(s wireSpan) []string {
	var names []string
	for k := range s.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestTraceRenderedFromStats pins the trace=1 tree rendered from hand-built
// Outputs: a full run, a query with a non-keyword, and a query with no
// candidate networks. Durations are whole microseconds, so every
// millisecond value must read back exactly.
func TestTraceRenderedFromStats(t *testing.T) {
	us := time.Microsecond
	full := core.Stats{
		MapTime: 1234 * us, PruneTime: 567 * us, MTNTime: 89 * us,
		LatticeNodes: 400, PrunedNodes: 130, MTNs: 5,
		SubNodes: 42, DescTotal: 20, DescUnique: 12,
		Strategy: core.BUWR, SQLExecuted: 8, CacheHits: 3, Inferred: 9,
		SQLTime: 2101 * us, TraverseTime: 4321 * us,
	}
	for _, tc := range []struct {
		name   string
		out    *core.Output
		phase3 bool
	}{
		{"full run", &core.Output{Keywords: []string{"widom", "trio"}, Stats: full}, true},
		{"non-keyword", &core.Output{
			Keywords:    []string{"widom", "zzyzx"},
			NonKeywords: []string{"zzyzx"},
			Stats:       core.Stats{MapTime: 15 * us, LatticeNodes: 400},
		}, false},
		{"no candidate networks", &core.Output{
			Keywords: []string{"widom", "trio"},
			Stats:    core.Stats{MapTime: 21 * us, PruneTime: 333 * us, MTNTime: 7 * us, LatticeNodes: 400, PrunedNodes: 3},
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &Trace{Elapsed: 7031 * us, Workers: 4}
			root, stats := renderTrace(t, tc.out, tr)
			st := tc.out.Stats
			if root.Name != "debug" || micros(root.DurationMS) != tr.Elapsed.Microseconds() || root.Attrs != nil {
				t.Errorf("root = %s %vms %v, want debug %vms with no attrs", root.Name, root.DurationMS, root.Attrs, tr.Elapsed)
			}
			want := []string{"phase12"}
			if tc.phase3 {
				want = append(want, "phase3")
			}
			var names []string
			for _, c := range root.Children {
				names = append(names, c.Name)
			}
			if !reflect.DeepEqual(names, want) {
				t.Fatalf("children = %v, want %v", names, want)
			}

			p12 := root.Children[0]
			a := p12.Attrs
			if got, sum := micros(p12.DurationMS), micros(a["map_ms"])+micros(a["prune_ms"])+micros(a["mtn_ms"]); got != sum {
				t.Errorf("phase12 duration %dµs != map+prune+mtn %dµs", got, sum)
			}
			for name, w := range map[string]int64{
				"map_ms": st.MapTime.Microseconds(), "prune_ms": st.PruneTime.Microseconds(), "mtn_ms": st.MTNTime.Microseconds(),
			} {
				if got := micros(a[name]); got != w {
					t.Errorf("phase12 %s = %dµs, want %dµs", name, got, w)
				}
			}
			for name, w := range map[string]int{"lattice_nodes": st.LatticeNodes, "pruned_nodes": st.PrunedNodes, "mtns": st.MTNs} {
				if a[name] != float64(w) {
					t.Errorf("phase12 %s = %v, want %d", name, a[name], w)
				}
			}
			wantAttrs := []string{"lattice_nodes", "map_ms", "mtn_ms", "mtns", "prune_ms", "pruned_nodes"}
			if len(tc.out.NonKeywords) > 0 {
				wantAttrs = []string{"lattice_nodes", "map_ms", "mtn_ms", "mtns", "non_keywords", "prune_ms", "pruned_nodes"}
				if got, _ := json.Marshal(a["non_keywords"]); string(got) != `["zzyzx"]` {
					t.Errorf("phase12 non_keywords = %s", got)
				}
			}
			if got := attrNames(p12); !reflect.DeepEqual(got, wantAttrs) {
				t.Errorf("phase12 attrs = %v, want %v", got, wantAttrs)
			}
			if !tc.phase3 {
				return
			}

			p3 := root.Children[1]
			if micros(p3.DurationMS) != st.TraverseTime.Microseconds() {
				t.Errorf("phase3 duration = %vms, want %v", p3.DurationMS, st.TraverseTime)
			}
			for name, w := range map[string]any{
				"strategy":      st.Strategy.String(),
				"workers":       float64(tr.Workers),
				"probes":        float64(st.SQLExecuted),
				"cache_hits":    float64(st.CacheHits),
				"inferred":      float64(st.Inferred),
				"sub_nodes":     float64(st.SubNodes),
				"reuse_percent": st.ReusePercent(),
			} {
				if p3.Attrs[name] != w {
					t.Errorf("phase3 %s = %v, want %v", name, p3.Attrs[name], w)
				}
			}
			if got := micros(p3.Attrs["sql_ms"]); got != st.SQLTime.Microseconds() {
				t.Errorf("phase3 sql_ms = %dµs, want %dµs", got, st.SQLTime.Microseconds())
			}
			wantAttrs = []string{"cache_hits", "inferred", "probes", "reuse_percent", "sql_ms", "strategy", "sub_nodes", "workers"}
			if got := attrNames(p3); !reflect.DeepEqual(got, wantAttrs) {
				t.Errorf("phase3 attrs = %v, want %v", got, wantAttrs)
			}
			if p3.Attrs["probes"] != stats["sql_executed"] || p3.Attrs["sql_ms"] != stats["sql_ms"] {
				t.Errorf("phase3 probes/sql_ms = %v/%v, stats = %v/%v",
					p3.Attrs["probes"], p3.Attrs["sql_ms"], stats["sql_executed"], stats["sql_ms"])
			}
		})
	}
}
