package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kwsdbg/internal/dblife"
	"kwsdbg/internal/obs/flight"
	"kwsdbg/internal/probecache"
)

// outcome is what a flight outcome event says about one probe.
type outcome struct {
	kind  flight.Kind
	node  int32
	probe string
	alive bool
}

// TestSBHReplayMatchesFresh compares a replayed SBH run with a run on a new
// System over the same engine, lattice and verdict cache, which walks the
// heap: their normalized Outputs, SQLExecuted and Inferred included, must be
// equal, and so must their flight outcome events (kind, node, probe key,
// verdict) and so SBH's probe order. It covers Figure 2, DBLife Q1-Q10 at
// levels 3 and 5, and random schemas with and without pins.
func TestSBHReplayMatchesFresh(t *testing.T) {
	check := func(t *testing.T, sys *System, kws []string, pins map[int]bool) {
		t.Helper()
		cache := probecache.New(probecache.Config{})
		run := func(sys *System) (Output, []outcome) {
			t.Helper()
			fl := flight.NewLog(flight.NewRecorder(flight.DefaultRingSize), "replay", true)
			out, err := sys.debugWith(flight.NewContext(context.Background(), fl), kws, Options{Strategy: SBH}, pins, cache)
			if err != nil {
				t.Fatalf("%v pins=%v: %v", kws, pins, err)
			}
			var events []outcome
			for _, ev := range fl.Events() {
				if ev.Kind == flight.ProbeCacheHit || ev.Kind == flight.SQLExec {
					events = append(events, outcome{ev.Kind, ev.Node, ev.Probe, ev.Alive})
				}
			}
			return normalized(out), events
		}
		replaying, err := NewSystem(sys.eng, sys.lat)
		if err != nil {
			t.Fatal(err)
		}
		run(replaying) // records the path and fills the verdict cache
		got, gotEvents := run(replaying)
		fresh, err := NewSystem(sys.eng, sys.lat)
		if err != nil {
			t.Fatal(err)
		}
		want, wantEvents := run(fresh)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v pins=%v: replayed Output differs from a new System's\ngot:  %+v\nwant: %+v", kws, pins, got, want)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Fatalf("%v pins=%v: replayed outcome events differ from a new System's\ngot:  %v\nwant: %v", kws, pins, gotEvents, wantEvents)
		}
	}
	t.Run("figure2", func(t *testing.T) {
		sys := productSystem(t)
		for _, kws := range figure2Queries {
			check(t, sys, kws, nil)
		}
	})
	for _, level := range []int{3, 5} {
		t.Run(fmt.Sprintf("dblife-level%d", level), func(t *testing.T) {
			sys := dblifeSystem(t, level)
			for _, q := range dblife.Workload() {
				check(t, sys, q.Keywords, nil)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(28))
		for trial := 0; trial < 10; trial++ {
			sys, vocab := randomSystem(t, r)
			for q := 0; q < 3; q++ {
				kws := make([]string, 1+r.Intn(3))
				for i := range kws {
					kws[i] = vocab[r.Intn(len(vocab))]
				}
				check(t, sys, kws, nil)
				if c := newRefCase(t, fmt.Sprint(kws), sys, kws); c != nil {
					check(t, sys, kws, c.randomPins(r))
				}
			}
		}
	})
}

// TestSBHReplayFollowsAgreeingPaths plants a path in the memo that holds the
// flipped verdict at the last probe of a recorded path but disagrees with it
// at the first probe, so no run could have taken it, and requires a run that
// diverges at that last probe to start again rather than follow the planted
// path.
func TestSBHReplayFollowsAgreeingPaths(t *testing.T) {
	sys := productSystem(t)
	c := newRefCase(t, "saffron scented candle", sys, []string{"saffron", "scented", "candle"})
	sd := seed{baseAlive: sys.baseAliveFunc()}
	order := c.compare(t, "recorded", c.truth, sd, SBH, 0, 1)
	last := len(order) - 1
	if last < 1 {
		t.Fatalf("the recorded path has %d probes, want at least 2", len(order))
	}
	recorded := (*c.sub.sbh.paths.Load())[0]
	planted := slices.Clone(recorded.steps)
	planted[0] ^= 1
	planted[last] ^= 1
	c.sub.sbh.record(c.sub, recorded.start, planted, traverseResult{})
	if n := len(*c.sub.sbh.paths.Load()); n != 2 {
		t.Fatalf("memo holds %d paths, want the recorded and the planted one", n)
	}
	c.compare(t, "flipped at the last probe", c.flipped(order[last]), sd, SBH, 0, 1)
}
