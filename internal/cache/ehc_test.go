package cache

import (
	"reflect"
	"testing"

	"selcache/internal/mem"
)

// ehcCache builds a one-set cache of the given width with EHC attached;
// block n lives at address n*16.
func ehcCache(assoc, hist int) *Cache {
	c := New(Config{Size: assoc * 16, Assoc: assoc, Block: 16})
	c.EnableEHC(hist)
	return c
}

func blk(n int) mem.Addr { return mem.Addr(n * 16) }

func ehcHistory(t *testing.T, c *Cache) []EHCHistSnapshot {
	t.Helper()
	_, hist, ok := c.SnapshotEHC()
	if !ok {
		t.Fatal("SnapshotEHC reports no EHC attached")
	}
	return hist
}

func wantVictim(t *testing.T, c *Cache, a mem.Addr, want int, why string) {
	t.Helper()
	if got, _, _ := c.VictimWay(a); got != want {
		t.Fatalf("victim way %d, want %d (%s)", got, want, why)
	}
}

// TestEHCHandComputedSequence walks one 2-way set through two
// generations of a block and checks the history training arithmetic
// (pred averages: 3, then (3+1)/2=2) and the victim decisions against
// hand-computed expected-hit values at each step.
func TestEHCHandComputedSequence(t *testing.T) {
	c := ehcCache(2, 8)

	// Generation 1 of block 10 on way 0: fill + 3 hits.
	c.Fill(blk(10), false)
	for i := 0; i < 3; i++ {
		if !c.Lookup(blk(10), false) {
			t.Fatal("resident block missed")
		}
	}
	// Block 20 fills way 1 (first invalid way).
	wantVictim(t, c, blk(20), 1, "invalid way 1")
	c.Fill(blk(20), false)

	// Full set. Neither block has history yet (10's generation has not
	// ended), so expected is 0 for both and the tie-break is LRU: way 0
	// (block 10, older despite its hits).
	wantVictim(t, c, blk(30), 0, "no history, LRU way 0")

	// Block 30 displaces way 0 — block 10's generation ends with 3 hits,
	// so its history slot trains to pred=3.
	c.Fill(blk(30), false)
	if got := ehcHistory(t, c); !reflect.DeepEqual(got, []EHCHistSnapshot{{Slot: 2, Tag: 10, Pred: 3}}) {
		t.Fatalf("history after gen 1 of block 10: %+v", got)
	}

	// Generation 2 of block 10: it returns, displacing the LRU way 1
	// (block 20, no history, expected 0 on both, way 1 older). Block 20's
	// hitless generation trains its slot (20 mod 8 = 4) to pred 0.
	wantVictim(t, c, blk(10), 1, "LRU way 1")
	c.Fill(blk(10), false)
	if got := ehcHistory(t, c); !reflect.DeepEqual(got, []EHCHistSnapshot{
		{Slot: 2, Tag: 10, Pred: 3}, {Slot: 4, Tag: 20, Pred: 0},
	}) {
		t.Fatalf("history after gen 1 of block 20: %+v", got)
	}

	// Block 10 predicts 3 with 0 hits so far: expected 3. Block 30 has no
	// history: expected 0. EHC evicts way 0 (block 30) although it is the
	// more recently used line — it protects block 10 where LRU would not.
	wantVictim(t, c, blk(40), 0, "block 30, expected 0 < block 10's 3")

	// One hit on block 10: expected drops to 2, still above 0.
	c.Lookup(blk(10), false)
	wantVictim(t, c, blk(40), 0, "block 30 still")

	// Removal ends block 10's generation at 1 hit: pred = (3+1)/2 = 2.
	if _, ok := c.Remove(blk(10)); !ok {
		t.Fatal("Remove missed a resident block")
	}
	if got := ehcHistory(t, c); !reflect.DeepEqual(got, []EHCHistSnapshot{
		{Slot: 2, Tag: 10, Pred: 2}, {Slot: 4, Tag: 20, Pred: 0},
	}) {
		t.Fatalf("history after gen 2 of block 10: %+v", got)
	}
	// Removing an absent block is a no-op.
	if _, ok := c.Remove(blk(10)); ok {
		t.Fatal("second Remove succeeded")
	}
	wantVictim(t, c, blk(40), 1, "invalid way 1")
}

// TestEHCHistoryAliasing checks the direct-mapped replacement of history
// slots: a block whose tag mismatches its slot's occupant overwrites it.
func TestEHCHistoryAliasing(t *testing.T) {
	c := ehcCache(1, 4)
	// Blocks 5 and 9 alias to slot 1 (mod 4).
	c.Fill(blk(5), false)
	c.Lookup(blk(5), false)
	c.Lookup(blk(5), false)
	c.Fill(blk(9), false) // ends gen of 5: slot 1 = {tag 5, pred 2}
	if got := ehcHistory(t, c); !reflect.DeepEqual(got, []EHCHistSnapshot{{Slot: 1, Tag: 5, Pred: 2}}) {
		t.Fatalf("history: %+v", got)
	}
	c.Fill(blk(5), false) // ends gen of 9 with 0 hits: slot replaced, pred 0
	if got := ehcHistory(t, c); !reflect.DeepEqual(got, []EHCHistSnapshot{{Slot: 1, Tag: 9, Pred: 0}}) {
		t.Fatalf("history after alias replacement: %+v", got)
	}
}

// TestEHCSnapshotOrder checks SnapshotEHC renders MRU-to-LRU order with
// current-generation hit counts, and reports no state without EHC.
func TestEHCSnapshotOrder(t *testing.T) {
	c := ehcCache(3, 4)
	c.Fill(blk(1), false)
	c.Fill(blk(2), false)
	c.Fill(blk(3), false)
	c.Lookup(blk(1), false) // block 1 becomes MRU with 1 hit
	want := [][]EHCLineSnapshot{{{Block: 1, Hits: 1}, {Block: 3, Hits: 0}, {Block: 2, Hits: 0}}}
	if got, _, _ := c.SnapshotEHC(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}
	if lines, hist, ok := smallCache().SnapshotEHC(); ok || lines != nil || hist != nil {
		t.Fatal("LRU cache reported EHC state")
	}
}

func TestNewEHCRejectsBadHistorySize(t *testing.T) {
	for _, n := range []int{0, -8, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EnableEHC(%d) did not panic", n)
				}
			}()
			smallCache().EnableEHC(n)
		}()
	}
}
