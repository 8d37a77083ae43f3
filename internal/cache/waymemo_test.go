package cache

import (
	"reflect"
	"testing"

	"selcache/internal/mem"
)

// TestWayMemoLeavesProbeOutcomesUnchanged runs the same stream through a
// plain cache and a memoized one: every probe outcome, eviction and
// statistic must match, the memo must stay sound, and its accounting
// must conserve.
func TestWayMemoLeavesProbeOutcomesUnchanged(t *testing.T) {
	cfg := Config{Size: 1 << 12, Assoc: 4, Block: 32}
	plain := New(cfg)
	memo := New(cfg)
	memo.EnableWayMemo(64)

	s := uint64(0x5A5A)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s * 0x2545F4914F6CDD1D
	}
	for i := 0; i < 200000; i++ {
		r := next()
		a := mem.Addr((r >> 16) % (2 << 12) &^ 7)
		write := r>>32%10 < 3
		h1 := plain.Lookup(a, write)
		h2 := memo.Lookup(a, write)
		if h1 != h2 {
			t.Fatalf("op %d: Lookup(%#x) plain %v memoized %v", i, a, h1, h2)
		}
		if !h1 {
			if e1, e2 := plain.FillMiss(a, write), memo.FillMiss(a, write); e1 != e2 {
				t.Fatalf("op %d: fill plain %+v memoized %+v", i, a, e1)
			}
		}
		if i%5000 == 0 {
			if err := memo.CheckWayMemo(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if plain.Stats != memo.Stats {
		t.Fatalf("stats diverged:\n plain %+v\n memoized %+v", plain.Stats, memo.Stats)
	}
	if a, b := plain.SnapshotSets(), memo.SnapshotSets(); !reflect.DeepEqual(a, b) {
		t.Fatal("snapshot content diverged")
	}
	if err := memo.CheckWayMemo(); err != nil {
		t.Fatal(err)
	}
	st, ok := memo.WayMemoCounters()
	if !ok || st.Probes != memo.Stats.Accesses {
		t.Fatalf("memo probes %d (ok=%v) != accesses %d", st.Probes, ok, memo.Stats.Accesses)
	}
	if st.Hits == 0 {
		t.Fatal("stream produced zero memo hits")
	}
}
