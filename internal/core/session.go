package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Session supports the interactive debugging loop the paper's conclusion
// calls out as future work ("debugging is often an interactive process and
// it is worth studying how to combine the search for MPANs with user
// intervention"): repeated runs over one keyword query where
//
//   - probe results are memoized, so a re-run after narrowing the question
//     costs no SQL for anything already learned, and
//   - the developer can pin aliveness facts ("assume this sub-query is
//     alive — I just fixed the data" / "treat this branch as dead") and see
//     the hypothetical answers, non-answers, and MPANs without touching the
//     database.
//
// Pinned facts are injected as knowledge before any probing and propagate
// through the classification rules: pinning a node alive implies its whole
// sub-query tree alive (rule R1), pinning it dead kills its ancestors
// (rule R2). They take precedence over both the memo and the database, which
// makes the output *hypothetical* — exactly their point. The memo holds only
// what the data said: a Run that finds the engine's data version moved since
// the memo was learned drops it first, so a write between runs is always
// seen. Reset drops it on demand.
type Session struct {
	sys      *System
	keywords []string
	pinned   map[int]bool // lattice node ID -> assumed aliveness
	memo     map[int]bool // probe results learned in previous runs
	version  uint64       // the engine's data version the memo was learned at
	probes   int          // SQL probes across the session's lifetime
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
		memo:     make(map[int]bool),
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

// Reset drops the memoized probe results while keeping the pins. Run already
// drops them after a write; Reset forces it.
func (s *Session) Reset() { s.memo = make(map[int]bool) }

// Probes reports the total SQL probes the session has executed.
func (s *Session) Probes() int { return s.probes }

// Run executes phases 1-3 under the session's pins and memo.
func (s *Session) Run(opts Options) (*Output, error) {
	// Index attributes rows appended to storage directly to the version
	// vector, so the version read next counts every write.
	s.sys.eng.Index()
	if v := s.sys.eng.DataVersion(); v != s.version {
		s.Reset()
		s.version = v
	}
	out, err := s.sys.debugWith(context.Background(), s.keywords, opts, s)
	if err != nil {
		return nil, err
	}
	s.probes += out.Stats.SQLExecuted
	return out, nil
}

// sessionOracle layers pins and the memo over the SQL oracle. Concurrent
// probes of the same node (parallel BU/TD runs share descendants) are
// single-flighted: one caller executes, the rest wait for its verdict. That
// is not just an optimization — it keeps the probe count identical to the
// serial run, where the first traversal pays for a shared node and every
// later one hits the memo.
type sessionOracle struct {
	inner Oracle
	s     *Session

	mu       sync.Mutex
	inflight map[int]*probeCall
}

// probeCall is one in-flight probe; done closes when alive/err are final.
type probeCall struct {
	done  chan struct{}
	alive bool
	err   error
}

// IsAlive implements Oracle.
func (o *sessionOracle) IsAlive(nodeID int) (bool, error) {
	// Pins are written only between runs; reading without the lock is safe.
	if alive, ok := o.s.pinned[nodeID]; ok {
		return alive, nil
	}
	o.mu.Lock()
	if alive, ok := o.s.memo[nodeID]; ok {
		o.mu.Unlock()
		return alive, nil
	}
	if c, ok := o.inflight[nodeID]; ok {
		o.mu.Unlock()
		<-c.done
		return c.alive, c.err
	}
	if o.inflight == nil {
		o.inflight = make(map[int]*probeCall)
	}
	c := &probeCall{done: make(chan struct{})}
	o.inflight[nodeID] = c
	o.mu.Unlock()

	c.alive, c.err = o.inner.IsAlive(nodeID)

	o.mu.Lock()
	if c.err == nil {
		o.s.memo[nodeID] = c.alive
	}
	delete(o.inflight, nodeID)
	o.mu.Unlock()
	close(c.done)
	return c.alive, c.err
}
