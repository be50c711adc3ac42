// Package lock is the lockcheck analyzer's fixture: a guarded LRU-shaped
// struct with correctly locked methods, the unlocked regressions the
// analyzer exists to catch, and each sanctioned escape hatch.
package lock

import "sync"

type cache struct {
	mu sync.Mutex
	// items is the live table. guarded by mu.
	items map[string]int
	// hits counts lookups. guarded by mu.
	hits int

	// cap is unannotated: accesses are unchecked.
	cap int
}

// get locks before touching guarded state: clean.
func (c *cache) get(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	return c.items[k]
}

// peek reads a guarded field with no lock anywhere in the method.
func (c *cache) peek(k string) int {
	return c.items[k] // want `peek accesses cache\.items without acquiring mu`
}

// sizeLocked follows the *Locked naming convention: callers hold mu.
func (c *cache) sizeLocked() int { return len(c.items) }

// capacity touches only unannotated state: no lock required.
func (c *cache) capacity() int { return c.cap }

// newCache initializes guarded fields on a value no other goroutine can see
// yet: constructors are exempt.
func newCache(n int) *cache {
	c := &cache{items: make(map[string]int, n), cap: n}
	c.items["seed"] = 1
	return c
}

// drain reaches into guarded state from a plain function on a shared value.
func drain(c *cache) {
	for k := range c.items { // want `guarded field cache\.items accessed outside a method`
		delete(c.items, k) // want `guarded field cache\.items accessed outside a method`
	}
}

// approxLen records why a torn read is acceptable here.
func (c *cache) approxLen() int {
	//lint:ignore kwslint/lockcheck approximate stat, torn reads acceptable
	return len(c.items)
}

// rw proves RLock satisfies the annotation on a RWMutex guard.
type rw struct {
	lk sync.RWMutex
	// n is the shared counter. guarded by lk.
	n int
}

func (r *rw) read() int {
	r.lk.RLock()
	defer r.lk.RUnlock()
	return r.n
}

func (r *rw) badRead() int {
	return r.n // want `badRead accesses rw\.n without acquiring lk`
}

// misnamed annotates a field with a guard that is not a mutex sibling: the
// annotation itself is the bug.
type misnamed struct {
	// v is shared state. guarded by missing.
	v int // want `guarded-by annotation names "missing"`
}

func (m *misnamed) value() int { return m.v }

// owner's mutex guards the state of every handle that points to it.
type owner struct {
	mu sync.Mutex
	n  int
}

// handle annotates its fields with a guard reached through a pointer field.
type handle struct {
	own *owner
	// uses tallies calls. guarded by own.mu.
	uses int
	// wrong names a field of the owner that is not a mutex. guarded by own.n.
	wrong int // want `guarded-by annotation names "own\.n", which is not a sync\.Mutex/RWMutex field reached through a pointer field of handle`
}

// use locks the owner's mutex through the pointer field: clean.
func (h *handle) use() {
	h.own.mu.Lock()
	defer h.own.mu.Unlock()
	h.uses++
}

// useLocked follows the *Locked convention: callers hold own.mu.
func (h *handle) useLocked() { h.uses++ }

// count reads the handle's state without the owner's lock.
func (h *handle) count() int {
	return h.uses // want `count accesses handle\.uses without acquiring own\.mu`
}
