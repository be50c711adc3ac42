package core

import (
	"context"
	"strings"
	"testing"

	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/probecache"
)

// probeStages are the flight kinds the probe pipeline itself emits: the
// verdict-cache outcome, the evaluation step, and the repair. Scheduler
// events (admit, charge, verdict) and planner events are not part of the
// contract below.
var probeStages = map[flight.Kind]bool{
	flight.ProbeCacheHit:  true,
	flight.ProbeCacheMiss: true,
	flight.Suspect:        true,
	flight.SQLExec:        true,
	flight.Repair:         true,
}

// probeSequences groups a recorded run's pipeline events by node, in
// sequence order, as "kind" strings ("repair:<cause>" for repairs).
func probeSequences(fl *flight.Log) map[int32]string {
	seqs := map[int32][]string{}
	for _, ev := range fl.Events() {
		if ev.Node < 0 || !probeStages[ev.Kind] {
			continue
		}
		name := ev.Kind.String()
		if ev.Kind == flight.Repair {
			name += ":" + ev.Cause
		}
		seqs[ev.Node] = append(seqs[ev.Node], name)
	}
	out := make(map[int32]string, len(seqs))
	for node, s := range seqs {
		out[node] = strings.Join(s, " ")
	}
	return out
}

// TestProbePipelineContract pins the verdict-cache sequence both probe
// steps share — lookup, then evaluate, then store and repair — for the text
// and prepared steps across the four cache outcomes. RE probes the same node
// set on every run, so each scenario sees every probe exactly once; the
// flight events of each probe must follow one of the scenario's sequences,
// and the run's Stats must agree with the event counts.
func TestProbePipelineContract(t *testing.T) {
	kws := []string{"saffron", "scented", "candle"}
	steps := []struct {
		name string
		opts Options
	}{
		{"text", Options{TextProbes: true}},
		{"prepared", Options{}},
	}
	scenarios := []struct {
		name string
		// write runs before the scenario's Debug call.
		write string
		// seqs are the scenario's permitted per-probe sequences; the last
		// defines the scenario and must occur.
		seqs []string
	}{
		{name: "miss", seqs: []string{"probecache_miss sql_exec"}},
		{name: "hit", seqs: []string{"probecache_hit"}},
		{
			// A PType row matching no keyword intersects the footprint of
			// every dead verdict over PType without resurrecting any.
			name:  "suspect-confirmed",
			write: "INSERT INTO PType VALUES (4, 'soap')",
			seqs:  []string{"probecache_hit", "suspect sql_exec repair:confirmed"},
		},
		{
			// The canonical Example 1 fix: a saffron scented candle makes
			// some dead verdicts alive.
			name:  "suspect-flipped",
			write: "INSERT INTO Item VALUES (5, 'saffron scented candle', 2, 4, 4, 9.5, 'new stock')",
			seqs:  []string{"probecache_hit", "suspect sql_exec repair:confirmed", "suspect sql_exec repair:flipped"},
		},
	}

	for _, step := range steps {
		sys := productSystem(t)
		sys.SetProbeCache(probecache.New(probecache.Config{}))
		probed := -1
		for _, sc := range scenarios {
			t.Run(step.name+"/"+sc.name, func(t *testing.T) {
				if sc.write != "" {
					if _, err := sys.Engine().Exec(sc.write); err != nil {
						t.Fatalf("Exec(%s): %v", sc.write, err)
					}
				}
				fl := flight.NewLog(flight.NewRecorder(1<<14), "contract", true)
				opts := step.opts
				opts.Strategy = RE
				out, err := sys.DebugContext(flight.NewContext(context.Background(), fl), kws, opts)
				if err != nil {
					t.Fatal(err)
				}
				allowed := map[string]bool{}
				for _, s := range sc.seqs {
					allowed[s] = true
				}
				defining := sc.seqs[len(sc.seqs)-1]
				seqs := probeSequences(fl)
				counts := map[string]int{}
				sawDefining := false
				for node, s := range seqs {
					if !allowed[s] {
						t.Errorf("node %d: pipeline events %q, want one of %v", node, s, sc.seqs)
					}
					sawDefining = sawDefining || s == defining
					for _, k := range strings.Fields(s) {
						counts[strings.SplitN(k, ":", 2)[0]]++
					}
				}
				if !sawDefining {
					t.Errorf("no probe followed %q; the scenario did not exercise its path", defining)
				}
				if probed >= 0 && len(seqs) != probed {
					t.Errorf("RE probed %d nodes, earlier scenarios %d", len(seqs), probed)
				}
				probed = len(seqs)

				st := out.Stats
				want := []struct {
					name      string
					got, want int
				}{
					{"SQLExecuted", st.SQLExecuted, len(seqs)},
					{"CacheHits", st.CacheHits, counts["probecache_hit"]},
					{"Suspects", st.Suspects, counts["suspect"]},
					{"Repaired", st.Repaired, counts["repair"]},
					{"SQLIssued", st.SQLIssued(), counts["sql_exec"]},
				}
				for _, w := range want {
					if w.got != w.want {
						t.Errorf("Stats.%s = %d, flight events say %d", w.name, w.got, w.want)
					}
				}
			})
		}
	}
}
