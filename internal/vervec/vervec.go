// Package vervec is the engine's fine-grained data-version vector: one
// monotone write counter per table and per keyword term, plus a non-monotone
// epoch for mutations that cannot be attributed (in-place updates).
//
// A scalar data version has a blunt failure mode: any INSERT advances the one
// global counter, so every prepared plan, candidate set, and cached probe
// verdict keyed on it goes stale at once — even for join trees that cannot
// possibly see the written table. (engine.DataVersion survives only as a
// report of the vector's Seq.) The vector lets a cached artifact record the
// *footprint* it was computed from (the vector names of its tables and
// terms, with their counter values at compute time) and later ask the cheap
// question "did anything I depend on move?" instead of the global one "did
// anything at all move?".
//
// Names are namespaced strings (TableKey / TermKey) so tables and terms
// share one counter map without colliding. Counters only ever advance; the
// epoch advances on BumpEpoch and invalidates every stamp regardless of
// footprint, which is the correct answer for non-monotone mutations where
// per-name attribution is impossible.
//
// Writers must bump before publishing the mutation and readers must stamp
// before reading the data they cache (see Stamp): with that discipline a
// stamp that still matches the vector proves the cached artifact saw
// everything the vector has seen, while a mid-computation write makes the
// stamp stale — the safe direction.
package vervec

import "sync"

// TableKey returns the vector name of a table's write counter.
func TableKey(table string) string { return "t\x00" + table }

// TermKey returns the vector name of a keyword term's write counter. Terms
// are the inverted index's tokens (see invidx.Tokenize); callers tokenize
// before keying so "Keyword" and "keyword" share one counter.
func TermKey(term string) string { return "k\x00" + term }

// Vector is a set of named monotone counters plus an epoch. The zero value
// is not usable; see New. Safe for concurrent use.
type Vector struct {
	mu sync.RWMutex
	// counters maps vector name to its write count; absent means 0.
	// guarded by mu.
	counters map[string]uint64
	// epoch advances on non-monotone mutations. guarded by mu.
	epoch uint64
	// seq counts every Bump and BumpEpoch call, so snapshot consumers can
	// detect "nothing moved" with one read. guarded by mu.
	seq uint64
}

// New returns an empty vector: every counter at zero, epoch zero.
func New() *Vector {
	return &Vector{counters: make(map[string]uint64)}
}

// Bump advances the named counters by one, atomically with respect to
// stamps and snapshots: a reader sees either none or all of one call's
// bumps. Call it *before* publishing the mutation it describes, so a stamp
// taken mid-write goes stale rather than vouching for data it never saw.
func (v *Vector) Bump(names ...string) {
	if len(names) == 0 {
		return
	}
	v.mu.Lock()
	for _, n := range names {
		v.counters[n]++
	}
	v.seq++
	v.mu.Unlock()
}

// BumpEpoch invalidates every outstanding stamp, for mutations whose
// footprint is unknowable (in-place updates, external loads).
func (v *Vector) BumpEpoch() {
	v.mu.Lock()
	v.epoch++
	v.seq++
	v.mu.Unlock()
}

// Epoch returns the current epoch.
func (v *Vector) Epoch() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.epoch
}

// Seq returns the total number of bump events observed. Snapshot consumers
// compare it to skip re-snapshotting a quiescent vector.
func (v *Vector) Seq() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.seq
}

// Counter returns the named counter's current value (0 if never bumped).
func (v *Vector) Counter(name string) uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.counters[name]
}

// Advanced reports whether the named counter has moved past val.
func (v *Vector) Advanced(name string, val uint64) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.counters[name] > val
}

// EpochChanged reports whether the epoch differs from e.
func (v *Vector) EpochChanged(e uint64) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.epoch != e
}

// Stamp is a footprint snapshot: the counter values of a fixed name set at
// one instant, plus the epoch. Names is aliased, not copied — callers pass
// a slice they will not mutate (footprints are computed once per artifact).
type Stamp struct {
	Epoch uint64
	Names []string
	Vals  []uint64
}

// Stamp snapshots the named counters under one lock acquisition. Take the
// stamp before reading the data the artifact is computed from.
func (v *Vector) Stamp(names []string) Stamp {
	s := Stamp{Names: names, Vals: make([]uint64, len(names))}
	v.mu.RLock()
	s.Epoch = v.epoch
	for i, n := range names {
		s.Vals[i] = v.counters[n]
	}
	v.mu.RUnlock()
	return s
}

// Stale reports whether any counter in the stamp's footprint has advanced
// past its stamped value, or the epoch has moved. A fresh result proves the
// vector has observed no write intersecting the footprint since the stamp.
func (v *Vector) Stale(s Stamp) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.epoch != s.Epoch {
		return true
	}
	for i, n := range s.Names {
		if v.counters[n] > s.Vals[i] {
			return true
		}
	}
	return false
}

// View is an immutable snapshot of the whole vector, for consumers that
// compare many stamps against one consistent instant (the probe cache syncs
// a View per debug run instead of locking the live vector per lookup).
type View struct {
	// Seq and Epoch are the vector's values at snapshot time.
	Seq   uint64
	Epoch uint64
	vals  map[string]uint64
}

// Snapshot copies the vector out. O(names ever bumped); callers gate on Seq
// to skip the copy when nothing moved.
func (v *Vector) Snapshot() *View {
	v.mu.RLock()
	defer v.mu.RUnlock()
	vw := &View{Seq: v.seq, Epoch: v.epoch, vals: make(map[string]uint64, len(v.counters))}
	for n, c := range v.counters {
		vw.vals[n] = c
	}
	return vw
}

// Counter returns the named counter's value at snapshot time. A nil View
// reads as all-zero (the state of a vector nothing ever bumped).
func (vw *View) Counter(name string) uint64 {
	if vw == nil {
		return 0
	}
	return vw.vals[name]
}
