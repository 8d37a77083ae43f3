package cache

import (
	"errors"
	"testing"
	"testing/quick"

	"selcache/internal/mem"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 16-byte blocks = 128 bytes.
	return New(Config{Size: 128, Assoc: 2, Block: 16})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Size: 0, Assoc: 1, Block: 16},
		{Size: 128, Assoc: 0, Block: 16},
		{Size: 128, Assoc: 2, Block: 0},
		{Size: 128, Assoc: 2, Block: 24}, // not power of two
		{Size: 120, Assoc: 2, Block: 16}, // size not multiple of block
		{Size: 128, Assoc: 3, Block: 16}, // lines not divisible
		{Size: 96, Assoc: 2, Block: 16},  // sets not power of two
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d (%+v): expected panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestAssocBound checks the packed layout's width limit: a set's recency
// order holds 16 four-bit way numbers, so 16 ways build and 17 are
// rejected with ErrAssocTooWide.
func TestAssocBound(t *testing.T) {
	for _, tc := range []struct {
		assoc int
		ok    bool
	}{{16, true}, {17, false}} {
		cfg := Config{Size: 2 * tc.assoc * 16, Assoc: tc.assoc, Block: 16}
		err := cfg.validate()
		if tc.ok {
			if err != nil {
				t.Fatalf("%d ways: %v", tc.assoc, err)
			}
			c := New(cfg)
			for b := 0; b < 2*tc.assoc; b++ {
				c.Fill(mem.Addr(b*16), false)
			}
			if c.Resident() != 2*tc.assoc {
				t.Fatalf("%d ways: %d lines resident after filling every way", tc.assoc, c.Resident())
			}
			continue
		}
		if !errors.Is(err, ErrAssocTooWide) {
			t.Fatalf("%d ways: validate = %v, want ErrAssocTooWide", tc.assoc, err)
		}
		func() {
			defer func() {
				if r, _ := recover().(error); !errors.Is(r, ErrAssocTooWide) {
					t.Fatalf("%d ways: New panicked with %v, want ErrAssocTooWide", tc.assoc, r)
				}
			}()
			New(cfg)
		}()
	}
}

func TestLookupMissThenFillHits(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x100, false) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(0x100, false)
	if !c.Lookup(0x100, false) {
		t.Fatal("lookup after fill missed")
	}
	if !c.Lookup(0x10F, false) {
		t.Fatal("same-block lookup missed")
	}
	if c.Lookup(0x110, false) {
		t.Fatal("next-block lookup hit")
	}
	if c.Stats.Accesses != 4 || c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache()
	// Three blocks mapping to set 0 (addresses 64 bytes apart: 4 sets x 16B).
	a0, a1, a2 := mem.Addr(0x000), mem.Addr(0x040), mem.Addr(0x080)
	c.Fill(a0, false)
	c.Fill(a1, false)
	c.Lookup(a0, false) // a0 now MRU; a1 is LRU
	ev := c.Fill(a2, false)
	if !ev.Valid || ev.BlockAddr != a1 {
		t.Fatalf("evicted %+v, want block %#x", ev, a1)
	}
	if !c.Contains(a0) || c.Contains(a1) || !c.Contains(a2) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestDirtyEvictionAndWriteback(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, true) // dirty fill
	c.Fill(0x040, false)
	ev := c.Fill(0x080, false) // evicts 0x000
	if !ev.Valid || !ev.Dirty {
		t.Fatalf("expected dirty eviction, got %+v", ev)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Fatalf("dirty evictions %d", c.Stats.DirtyEvictions)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, false)
	c.Lookup(0x000, true) // write hit
	c.Fill(0x040, false)
	ev := c.Fill(0x080, false)
	if !ev.Dirty {
		t.Fatal("write hit did not mark line dirty")
	}
}

// TestVictimBlockPredictsFill checks that the victim block VictimWay
// reports is exactly what FillWay into that way evicts.
func TestVictimBlockPredictsFill(t *testing.T) {
	c := smallCache()
	if way, _, valid := c.VictimWay(0x000); valid || way != 0 {
		t.Fatalf("cold set: victim way %d valid=%v, want invalid way 0", way, valid)
	}
	c.Fill(0x000, false)
	c.Fill(0x040, false)
	way, pred, valid := c.VictimWay(0x080)
	if !valid {
		t.Fatal("full set has no victim")
	}
	if way != 0 {
		t.Fatalf("victim way %d, want LRU way 0", way)
	}
	ev := c.FillWay(0x080, way, false)
	if ev.BlockAddr != pred {
		t.Fatalf("VictimWay predicted %#x, FillWay evicted %#x", pred, ev.BlockAddr)
	}
	if !c.Contains(0x080) || c.Contains(0x000) || !c.Contains(0x040) {
		t.Fatal("wrong residency after FillWay")
	}
}

func TestRemove(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, true)
	dirty, ok := c.Remove(0x000)
	if !ok || !dirty {
		t.Fatalf("Remove = (%v, %v)", dirty, ok)
	}
	if c.Contains(0x000) {
		t.Fatal("block still resident after Remove")
	}
	if _, ok := c.Remove(0x000); ok {
		t.Fatal("second Remove succeeded")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, true)
	c.Fill(0x040, false)
	if d := c.Flush(); d != 1 {
		t.Fatalf("Flush returned %d dirty lines", d)
	}
	if c.Resident() != 0 {
		t.Fatal("lines resident after flush")
	}
}

func TestFillRefreshExisting(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, false)
	ev := c.Fill(0x000, true)
	if ev.Valid {
		t.Fatal("refill evicted something")
	}
	c.Fill(0x040, false)
	ev = c.Fill(0x080, false)
	if !ev.Dirty {
		t.Fatal("refill did not accumulate dirty bit")
	}
}

// TestLRUStackProperty: with a single set, a fully-associative cache
// obeys the LRU stack property — after any access sequence the resident
// blocks are exactly the assoc most recently used distinct blocks.
func TestLRUStackProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		const ways = 4
		c := New(Config{Size: ways * 16, Assoc: ways, Block: 16})
		var order []uint64 // distinct blocks, most recent first
		for _, b := range seq {
			block := uint64(b % 16)
			addr := mem.Addr(block * 16)
			if !c.Lookup(addr, false) {
				c.Fill(addr, false)
			}
			for i, x := range order {
				if x == block {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append([]uint64{block}, order...)
		}
		n := len(order)
		if n > ways {
			n = ways
		}
		for _, b := range order[:n] {
			if !c.Contains(mem.Addr(b * 16)) {
				return false
			}
		}
		for _, b := range order[n:] {
			if c.Contains(mem.Addr(b * 16)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
