package cache

import (
	"fmt"

	"selcache/internal/mem"
)

// This file exposes read-only state snapshots used by the differential
// oracle (internal/oracle) to cross-check the optimized structures against
// naive reference models. Snapshots are cold-path only: nothing in the
// per-access hot path calls them.

// LineSnapshot is one valid line of a snapshot: the block address it holds
// and its dirty bit.
type LineSnapshot struct {
	BlockAddr mem.Addr
	Dirty     bool
}

// SnapshotSets returns, per set, the valid lines in MRU-to-LRU order (the
// set's recency order word). Invalid lines are omitted, so a set slice's
// length is its occupancy.
func (c *Cache) SnapshotSets() [][]LineSnapshot {
	out := make([][]LineSnapshot, len(c.sets))
	for s, st := range c.sets {
		ways := st.order.ValidWays(c.assoc, st.valid)
		snap := make([]LineSnapshot, len(ways))
		for i, w := range ways {
			snap[i] = LineSnapshot{
				BlockAddr: mem.Addr(c.tags[s*c.assoc+w] << c.blockBits),
				Dirty:     st.dirty>>uint(w)&1 != 0,
			}
		}
		out[s] = snap
	}
	return out
}

// FASnapshot is one resident entry of a fully-associative store snapshot.
type FASnapshot struct {
	Key   uint64
	Dirty bool
}

// Snapshot returns the resident entries from most- to least-recently used
// with their dirty payloads (Keys without the payload loss).
func (f *FA) Snapshot() []FASnapshot {
	out := make([]FASnapshot, 0, f.n)
	for i := f.head; i != faNil; i = f.entries[i].next {
		out = append(out, FASnapshot{Key: f.entries[i].key, Dirty: f.entries[i].dirty})
	}
	return out
}

// Snapshot returns the victim cache's resident blocks from most- to
// least-recently used. Keys are block numbers (block address divided by
// the block size), matching what the reference model stores.
func (v *Victim) Snapshot() []FASnapshot { return v.fa.Snapshot() }

// WayMemoSnapshot is one live way-memo slot. The way is deliberately
// omitted: the naive reference model keeps its sets as recency lists, so
// physical way numbers have no meaning there; which blocks are memoized
// (and in which slots) is the comparable state, and way correctness is
// enforced separately by CheckWayMemo on the engine side.
type WayMemoSnapshot struct {
	Slot int
	Tag  uint64
}

// SnapshotWayMemo returns the live memo entries in slot order, or nil
// when no memo is attached.
func (c *Cache) SnapshotWayMemo() []WayMemoSnapshot {
	if c.memo == nil {
		return nil
	}
	var out []WayMemoSnapshot
	for i := range c.memo.slots {
		if c.memo.slots[i].valid {
			out = append(out, WayMemoSnapshot{Slot: i, Tag: c.memo.slots[i].tag})
		}
	}
	return out
}

// WayMemoCounters returns the memo statistics and whether a memo is
// attached.
func (c *Cache) WayMemoCounters() (WayMemoStats, bool) {
	if c.memo == nil {
		return WayMemoStats{}, false
	}
	return c.memo.stats, true
}

// CheckWayMemo verifies the memo's structural invariants from the engine
// side: soundness (every live entry names a resident line in the
// recorded way — the property that makes skipping tag comparisons
// legal) and conservation (Installs == Displaced + Invalidates + live
// entries). The differential oracle calls it at every deep check.
func (c *Cache) CheckWayMemo() error {
	if c.memo == nil {
		return nil
	}
	live := uint64(0)
	for i := range c.memo.slots {
		e := &c.memo.slots[i]
		if !e.valid {
			continue
		}
		live++
		s := int(e.tag & c.setMask)
		if int(e.tag&c.memo.mask) != i {
			return fmt.Errorf("way memo: slot %d holds tag %#x that maps to slot %d", i, e.tag, e.tag&c.memo.mask)
		}
		valid := c.sets[s].valid>>e.way&1 != 0
		if tag := c.tags[s*c.assoc+int(e.way)]; !valid || tag != e.tag {
			return fmt.Errorf("way memo: slot %d says block %#x sits in set %d way %d, but that line holds valid=%v tag %#x",
				i, e.tag, s, e.way, valid, tag)
		}
	}
	st := c.memo.stats
	if st.Installs != st.Displaced+st.Invalidates+live {
		return fmt.Errorf("way memo: conservation violated: installs %d != displaced %d + invalidates %d + live %d",
			st.Installs, st.Displaced, st.Invalidates, live)
	}
	if st.Hits > st.Probes {
		return fmt.Errorf("way memo: hits %d > probes %d", st.Hits, st.Probes)
	}
	return nil
}
