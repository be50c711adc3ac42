package core

import (
	"context"
	"fmt"
	"sort"

	"kwsdbg/internal/probecache"
)

// Session supports the interactive debugging loop the paper's conclusion
// calls out as future work ("debugging is often an interactive process and
// it is worth studying how to combine the search for MPANs with user
// intervention"): repeated runs over one keyword query where
//
//   - probe verdicts go through the verdict cache, so a re-run after
//     narrowing the question costs no SQL for anything already learned, and
//     a re-run after a write re-probes only the dead verdicts the write
//     could have changed, and
//   - the developer can pin aliveness facts ("assume this sub-query is
//     alive — I just fixed the data" / "treat this branch as dead") and see
//     the hypothetical answers, non-answers, and MPANs without touching the
//     database.
//
// Pinned facts are injected as knowledge before any probing and propagate
// through the classification rules: pinning a node alive implies its whole
// sub-query tree alive (rule R1), pinning it dead kills its ancestors
// (rule R2). They take precedence over the database, which makes the output
// *hypothetical* — exactly their point. Pinned and inferred nodes are never
// probed, so a pin never enters the verdict cache, which holds only what the
// data said.
type Session struct {
	sys      *System
	keywords []string
	pinned   map[int]bool // lattice node ID -> assumed aliveness
	// cache serves the session's runs when the System has no verdict cache
	// installed.
	cache  *probecache.Cache
	issued int // probes that reached the database across the session's runs
}

// NewSession starts an interactive session for one keyword query.
func (sys *System) NewSession(keywords []string) (*Session, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("core: empty keyword query")
	}
	if len(keywords) > sys.lat.KeywordSlots() {
		return nil, fmt.Errorf("core: query has %d keywords; lattice supports %d",
			len(keywords), sys.lat.KeywordSlots())
	}
	return &Session{
		sys:      sys,
		keywords: keywords,
		pinned:   make(map[int]bool),
		cache:    probecache.New(probecache.Config{}),
	}, nil
}

// Keywords returns the session's keyword query.
func (s *Session) Keywords() []string { return s.keywords }

// Pin asserts a node's aliveness for subsequent runs.
func (s *Session) Pin(nodeID int, alive bool) { s.pinned[nodeID] = alive }

// Unpin removes an assertion.
func (s *Session) Unpin(nodeID int) { delete(s.pinned, nodeID) }

// Pins lists the currently pinned node IDs, sorted.
func (s *Session) Pins() []int {
	out := make([]int, 0, len(s.pinned))
	for id := range s.pinned {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Probes reports the probes that reached the database across the session's
// runs: the sum of their Stats.SQLIssued.
func (s *Session) Probes() int { return s.issued }

// Run executes phases 1-3 under the session's pins. Its Stats count as
// Debug's do: SQLExecuted is the strategy's probes, verdict-cache hits
// included.
func (s *Session) Run(opts Options) (*Output, error) {
	cache := s.sys.ProbeCache()
	if cache == nil {
		cache = s.cache
	}
	out, err := s.sys.debugWith(context.Background(), s.keywords, opts, s.pinned, cache)
	if err != nil {
		return nil, err
	}
	s.issued += out.Stats.SQLIssued()
	return out, nil
}
