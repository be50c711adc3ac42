package probecache

import (
	"testing"
	"time"

	"kwsdbg/internal/vervec"
)

// fpItem is a one-table footprint over Item with one bound term.
func fpItem() Footprint {
	return Footprint{
		Tables: []string{vervec.TableKey("Item")},
		Terms:  []string{vervec.TermKey("lilac")},
	}
}

func TestDisjointWriteInvalidatesNothing(t *testing.T) {
	vv := vervec.New()
	c := New(Config{})
	vw := c.SyncVersions(vv)
	c.PutFP("dead", false, fpItem(), vw)
	c.PutFP("alive", true, fpItem(), vw)

	// A write to an unrelated table — even one carrying the entry's own
	// term — must leave both verdicts served as hits.
	vv.Bump(vervec.TableKey("Person"), vervec.TermKey("lilac"))
	c.SyncVersions(vv)
	if _, outcome := c.Lookup("dead"); outcome != Hit {
		t.Fatalf("dead verdict after disjoint write: outcome %v, want Hit", outcome)
	}
	if _, outcome := c.Lookup("alive"); outcome != Hit {
		t.Fatalf("alive verdict after disjoint write: outcome %v, want Hit", outcome)
	}
	if st := c.Snapshot(); st.EvictionsStale != 0 || st.Suspects != 0 {
		t.Fatalf("disjoint write caused invalidation: %+v", st)
	}
}

func TestMonotoneRepairLifecycle(t *testing.T) {
	vv := vervec.New()
	c := New(Config{})
	vw := c.SyncVersions(vv)
	c.PutFP("dead", false, fpItem(), vw)
	c.PutFP("alive", true, fpItem(), vw)

	// A write into the footprint table: the alive verdict still hits (an
	// INSERT is monotone — R1), the dead one becomes a repair candidate.
	vv.Bump(vervec.TableKey("Item"), vervec.TermKey("candle"))
	vw = c.SyncVersions(vv)
	if alive, outcome := c.Lookup("alive"); outcome != Hit || !alive {
		t.Fatalf("alive verdict after touching write: (%v, %v), want (true, Hit)", alive, outcome)
	}
	if _, outcome := c.Lookup("dead"); outcome != Suspect {
		t.Fatalf("dead verdict after touching write: outcome %v, want Suspect", outcome)
	}
	if outcome := secondOutcome(c, "dead"); outcome != Suspect {
		t.Fatalf("repeat lookup of suspect: %v, want Suspect again", outcome)
	}
	st := c.Snapshot()
	if st.Suspects != 1 {
		t.Fatalf("Suspects = %d, want 1 (downgrade counts once)", st.Suspects)
	}
	if st.Entries != 2 {
		t.Fatalf("Entries = %d, want 2 (suspect retained, not evicted)", st.Entries)
	}

	// The re-probe stores the fresh verdict: that is the repair.
	c.PutFP("dead", true, fpItem(), vw)
	if st := c.Snapshot(); st.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", st.Repairs)
	}
	if alive, outcome := c.Lookup("dead"); outcome != Hit || !alive {
		t.Fatalf("repaired verdict: (%v, %v), want (true, Hit)", alive, outcome)
	}
}

func secondOutcome(c *Cache, key string) Outcome {
	_, o := c.Lookup(key)
	return o
}

func TestEpochBumpStalesFootprintEntries(t *testing.T) {
	vv := vervec.New()
	c := New(Config{})
	vw := c.SyncVersions(vv)
	c.PutFP("alive", true, fpItem(), vw)
	c.PutFP("dead", false, fpItem(), vw)

	// A non-monotone mutation (in-place update) voids the monotone repair
	// argument: both entries are plainly stale, alive ones included.
	vv.BumpEpoch()
	c.SyncVersions(vv)
	if _, outcome := c.Lookup("alive"); outcome != MissStale {
		t.Fatalf("alive verdict after epoch bump: %v, want MissStale", outcome)
	}
	if _, outcome := c.Lookup("dead"); outcome != MissStale {
		t.Fatalf("dead verdict after epoch bump: %v, want MissStale", outcome)
	}
	if st := c.Snapshot(); st.EvictionsStale != 2 || st.Suspects != 0 {
		t.Fatalf("epoch bump accounting: %+v", st)
	}
}

// TestSuspectTTLLapseIsStaleEviction pins the satellite requirement: a
// suspect whose TTL lapses before its repair lands is an expired eviction
// (EvictionsStale), not a repair candidate — the TTL check runs before the
// footprint check.
func TestSuspectTTLLapseIsStaleEviction(t *testing.T) {
	vv := vervec.New()
	c := New(Config{TTL: time.Minute})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	vw := c.SyncVersions(vv)
	c.PutFP("dead", false, fpItem(), vw)

	vv.Bump(vervec.TableKey("Item"))
	c.SyncVersions(vv)
	if _, outcome := c.Lookup("dead"); outcome != Suspect {
		t.Fatalf("outcome %v, want Suspect before the TTL lapses", outcome)
	}

	now = now.Add(time.Minute) // expires == now: already expired
	if _, outcome := c.Lookup("dead"); outcome != MissExpired {
		t.Fatalf("lapsed suspect: outcome %v, want MissExpired", outcome)
	}
	st := c.Snapshot()
	if st.EvictionsStale != 1 {
		t.Fatalf("EvictionsStale = %d, want 1 (lapsed suspect is an eviction)", st.EvictionsStale)
	}
	if st.Repairs != 0 {
		t.Fatalf("Repairs = %d, want 0 (a lapsed suspect must not count as repaired)", st.Repairs)
	}
	if st.Entries != 0 {
		t.Fatalf("Entries = %d, want 0 (lapsed suspect evicted on contact)", st.Entries)
	}
	// A later store is a plain cold fill, not a repair.
	c.PutFP("dead", true, fpItem(), c.SyncVersions(vv))
	if st := c.Snapshot(); st.Repairs != 0 {
		t.Fatalf("Repairs after refill = %d, want 0", st.Repairs)
	}
}

// TestLegacyPutKeepsGenerationSemantics pins that a Put entry, which carries
// no footprint, is not invalidated by writes to the version vector.
func TestLegacyPutKeepsGenerationSemantics(t *testing.T) {
	vv := vervec.New()
	c := New(Config{})
	c.Put("legacy", true) // no footprint, no view
	vv.Bump(vervec.TableKey("Item"))
	c.SyncVersions(vv)
	if _, outcome := c.Lookup("legacy"); outcome != Hit {
		t.Fatalf("legacy entry after vector-only write: %v, want Hit", outcome)
	}
}

func TestFootprintTables(t *testing.T) {
	vv := vervec.New()
	c := New(Config{})
	vw := c.SyncVersions(vv)
	c.PutFP("a", false, Footprint{Tables: []string{vervec.TableKey("Person"), vervec.TableKey("Item")}}, vw)
	c.PutFP("b", true, Footprint{Tables: []string{vervec.TableKey("Item")}, Terms: []string{vervec.TermKey("x")}}, vw)
	got := c.FootprintTables()
	want := []string{vervec.TableKey("Item"), vervec.TableKey("Person")}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("FootprintTables = %q, want %q", got, want)
	}
}
