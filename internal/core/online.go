package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"kwsdbg/internal/clock"
	"kwsdbg/internal/lattice"
)

// OnlineCNResult is what a classical KWS-S system's candidate-network
// generation phase produces at query time, for comparison against the
// lattice's Phase 1 + 2.
type OnlineCNResult struct {
	// MTNLabels are the canonical labels of the generated candidate
	// networks, comparable against the lattice path's nodes.
	MTNLabels []string
	// Generated counts every join tree the online expansion produced,
	// the work the lattice precomputes offline.
	Generated int
	Elapsed   time.Duration
}

// OnlineCandidateNetworks runs candidate-network generation the classical
// way — DISCOVER and DBXplorer expand join trees over the schema graph *at
// query time*, restricted to the tuple sets the current keywords bind — and
// returns the resulting candidate networks. The lattice pipeline must find
// exactly the same set through lookup and pruning (property-tested), and the
// comparison of Elapsed against Phase 1+2 time is the paper's §2.2 claim
// (iii): the offline structure "bypasses the costly candidate network
// generation phase".
func (sys *System) OnlineCandidateNetworks(keywords []string) (*OnlineCNResult, error) {
	ph, err := sys.bind(keywords)
	if err != nil {
		return nil, err
	}
	if len(ph.nonKeywords) > 0 {
		return &OnlineCNResult{}, nil
	}
	start := clock.Now()
	allow := func(rel string, copy int) bool {
		return copy <= len(keywords) && slices.Contains(ph.tables[copy-1], rel)
	}
	mini, err := lattice.GenerateRestricted(sys.lat.Schema(), lattice.Options{
		MaxJoins:     sys.lat.MaxJoins(),
		KeywordSlots: sys.lat.KeywordSlots(),
	}, allow)
	if err != nil {
		return nil, fmt.Errorf("core: online CN generation: %w", err)
	}
	res := &OnlineCNResult{Elapsed: 0}
	for _, st := range mini.Stats() {
		res.Generated += st.Generated
	}
	n := len(keywords)
	for id := 0; id < mini.Len(); id++ {
		node := mini.Node(id)
		if !node.IsTotal(n) {
			continue
		}
		minimal := true
		for _, c := range node.Children {
			if mini.Node(c).IsTotal(n) {
				minimal = false
				break
			}
		}
		if minimal {
			res.MTNLabels = append(res.MTNLabels, node.Label)
		}
	}
	sort.Strings(res.MTNLabels)
	res.Elapsed = clock.Since(start)
	return res, nil
}
