package core

import (
	"context"
	"fmt"
	"time"
)

// RE is the Return Everything baseline of §3.8: probe every unique node in
// the non-answers' sub-query space with no lattice inference. It produces
// the same answers, non-answers, and MPANs as the five traversal strategies,
// at the cost of one SQL query per node.
const RE Strategy = 100

// RNStats measures the Return Nothing baseline of §3.8: the system returns
// nothing for non-answers, and a developer debugging the non-answer
// re-submits every sub-query of the keyword query ("k1 k2", "k1 k3", ...,
// "k3"), each of which runs the standard KWS-S pipeline that evaluates every
// candidate network.
type RNStats struct {
	KeywordQueries int           // keyword queries submitted (2^n - 1)
	SQLExecuted    int           // candidate-network probes across them
	SQLTime        time.Duration // time spent executing those probes
	MapTime        time.Duration // inverted-index lookups across them
}

// ReturnNothing simulates the developer's manual exploration and reports its
// cost. The result set it can surface is both incomplete and redundant (the
// paper's argument); only its cost is comparable, which Figures 14 and 15
// plot against the lattice-based approach.
func (sys *System) ReturnNothing(keywords []string) (RNStats, error) {
	if len(keywords) == 0 {
		return RNStats{}, fmt.Errorf("core: empty keyword query")
	}
	if len(keywords) > 20 {
		return RNStats{}, fmt.Errorf("core: %d keywords would need 2^%d sub-queries", len(keywords), len(keywords))
	}
	var stats RNStats
	n := len(keywords)
	for mask := (1 << n) - 1; mask >= 1; mask-- {
		var subset []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, keywords[i])
			}
		}
		ph, err := sys.phase12(subset)
		if err != nil {
			return stats, err
		}
		stats.KeywordQueries++
		stats.MapTime += ph.stats.MapTime
		if len(ph.nonKeywords) > 0 {
			continue
		}
		o := sys.newOracle(context.Background(), subset, nil)
		o.db = sys.db
		for _, id := range ph.mtnIDs {
			if _, err := o.IsAlive(id); err != nil {
				return stats, err
			}
		}
		stats.SQLExecuted += int(o.executed.Load())
		stats.SQLTime += time.Duration(o.sqlNanos.Load())
	}
	return stats, nil
}
