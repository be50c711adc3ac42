package probecache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"kwsdbg/internal/vervec"
)

// put stores a verdict as the oracle does: stamped against a synced view.
func put(c *Cache, key string, alive bool) {
	c.PutFP(key, alive, fpItem(), c.SyncVersions(vervec.New()))
}

// get reports the verdict and whether the lookup hit.
func get(c *Cache, key string) (alive, ok bool) {
	alive, outcome := c.Lookup(key)
	return alive, outcome == Hit
}

func TestLookupPut(t *testing.T) {
	c := New(Config{MaxEntries: 4})
	if _, ok := get(c, "a"); ok {
		t.Fatal("hit on empty cache")
	}
	put(c, "a", true)
	put(c, "b", false)
	if alive, ok := get(c, "a"); !ok || !alive {
		t.Fatalf("get(a) = %v, %v; want true, true", alive, ok)
	}
	if alive, ok := get(c, "b"); !ok || alive {
		t.Fatalf("get(b) = %v, %v; want false, true", alive, ok)
	}
	st := c.Snapshot()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v; want 2 hits, 1 miss, 2 entries", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	put(c, "a", true)
	put(c, "b", true)
	get(c, "a") // a is now most recently used
	put(c, "c", true)
	if _, ok := get(c, "b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := get(c, k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if st := c.Snapshot(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v; want 1 eviction, 2 entries", st)
	}
}

func TestUpdateExisting(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	put(c, "a", true)
	put(c, "a", false)
	if c.Len() != 1 {
		t.Fatalf("Len = %d; want 1 (update, not duplicate)", c.Len())
	}
	if alive, ok := get(c, "a"); !ok || alive {
		t.Fatalf("get(a) = %v, %v; want updated false verdict", alive, ok)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(Config{TTL: time.Minute})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	put(c, "a", true)
	now = now.Add(30 * time.Second)
	if _, ok := get(c, "a"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(31 * time.Second)
	if _, ok := get(c, "a"); ok {
		t.Fatal("entry survived past its TTL")
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not evicted on contact")
	}
}

// TestTTLBoundary pins the exact expiry semantics: the TTL promises "served
// strictly before expires", so an entry touched exactly at its deadline
// (expires == now) is already expired — a stale-eviction miss, counted as
// stale, not capacity. One nanosecond before the deadline it still hits.
func TestTTLBoundary(t *testing.T) {
	c := New(Config{TTL: time.Minute})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	put(c, "a", true)

	now = now.Add(time.Minute - time.Nanosecond) // one before the deadline
	if _, ok := get(c, "a"); !ok {
		t.Fatal("entry must hit strictly before its deadline")
	}

	now = now.Add(time.Nanosecond) // exactly the deadline
	if _, ok := get(c, "a"); ok {
		t.Fatal("entry stored at expires == now must miss")
	}
	st := c.Snapshot()
	if st.EvictionsStale != 1 || st.EvictionsCapacity != 0 {
		t.Fatalf("stats = %+v; want exactly one stale eviction and no capacity evictions", st)
	}
	if st.Evictions != st.EvictionsStale+st.EvictionsCapacity {
		t.Fatalf("Evictions %d is not the sum of its parts in %+v", st.Evictions, st)
	}
}

// TestEvictionSplit separates the two eviction reasons end to end: LRU
// rotation counts as capacity, an epoch bump as stale.
func TestEvictionSplit(t *testing.T) {
	vv := vervec.New()
	c := New(Config{MaxEntries: 1})
	vw := c.SyncVersions(vv)
	c.PutFP("a", true, fpItem(), vw)
	c.PutFP("b", true, fpItem(), vw) // rotates a out: capacity
	vv.BumpEpoch()
	c.SyncVersions(vv)
	get(c, "b") // stale on contact: stale
	st := c.Snapshot()
	if st.EvictionsCapacity != 1 || st.EvictionsStale != 1 || st.Evictions != 2 {
		t.Fatalf("stats = %+v; want 1 capacity + 1 stale = 2 evictions", st)
	}
}

func TestKeyBindingSignature(t *testing.T) {
	kws := []string{"widom", "trio"}
	// Same label, same copies, same keywords: one key.
	if Key("L", 0b10, kws) != Key("L", 0b10, kws) {
		t.Fatal("identical probes must share a key")
	}
	// Copy 1 only: the second keyword must not matter.
	if Key("L", 0b10, []string{"widom", "trio"}) != Key("L", 0b10, []string{"widom", "other"}) {
		t.Fatal("unused keyword slots must not split the key")
	}
	// Different keyword for a used copy: different key.
	if Key("L", 0b10, []string{"widom"}) == Key("L", 0b10, []string{"ullman"}) {
		t.Fatal("binding must be part of the key")
	}
	// Copy index matters: keyword 1 on copy 1 vs copy 2.
	if Key("L", 0b10, []string{"widom", "widom"}) == Key("L", 0b100, []string{"widom", "widom"}) {
		t.Fatal("copy positions must be part of the key")
	}
	// Label matters.
	if Key("L1", 0b10, kws) == Key("L2", 0b10, kws) {
		t.Fatal("label must be part of the key")
	}
}

func TestPurge(t *testing.T) {
	c := New(Config{})
	put(c, "a", true)
	put(c, "b", true)
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d", c.Len())
	}
	if _, ok := get(c, "a"); ok {
		t.Fatal("hit after Purge")
	}
}

// TestConcurrent hammers the cache from many goroutines that sync against a
// version vector another goroutine keeps bumping; run under -race.
func TestConcurrent(t *testing.T) {
	vv := vervec.New()
	c := New(Config{MaxEntries: 64, TTL: time.Minute})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if i%10 == 0 {
				vv.BumpEpoch()
			} else {
				vv.Bump(vervec.TableKey("Item"))
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var vw *vervec.View
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%100)
				if i%7 == 0 {
					vw = c.SyncVersions(vv)
				}
				c.PutFP(key, i%2 == 0, fpItem(), vw)
				c.Lookup(key)
				if i%50 == 0 {
					c.Snapshot()
					c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPutFPCopiesNewKey checks that a new entry keeps its own copy of the
// key: debug runs pass keys that are substrings of a larger probe-key
// table, and an entry holding one would keep the whole table alive.
func TestPutFPCopiesNewKey(t *testing.T) {
	table := strings.Repeat("label\x001=kw", 100)
	key := table[100:200]
	c := New(Config{})
	c.PutFP(key, true, fpItem(), c.SyncVersions(vervec.New()))
	stored := c.items[key].Value.(*entry).key
	if stored != key {
		t.Fatalf("stored key %q, want %q", stored, key)
	}
	if sharesMemory(stored, table) {
		t.Fatal("the stored key shares memory with the caller's table")
	}
}

// sharesMemory reports whether s points into the bytes of within.
func sharesMemory(s, within string) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(within)))
	return p >= lo && p < lo+uintptr(len(within))
}
