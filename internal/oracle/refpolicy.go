package oracle

import "selcache/internal/cache"

// This file holds the naive reference models of the cache's
// Expected-Hit-Count replacement and way-memoization mechanisms. As
// everywhere in this package, state is explicit and indexing is plain
// modulo: the reference EHC keeps its hit counts directly on
// the recency-ordered set slices of refCache, and the reference way memo
// is a plain slice of {tag, valid} slots.

// refEHC is the reference Expected-Hit-Count predictor: the
// direct-mapped history table alone. Per-line generation hit counts live
// on refCache's refLines; refCache calls endGeneration whenever a line
// leaves (eviction or removal) and expected when choosing a victim.
type refEHC struct {
	hist []refEHCSlot
}

type refEHCSlot struct {
	tag   uint64
	pred  uint64
	valid bool
}

func newRefEHC(entries int) *refEHC { return &refEHC{hist: make([]refEHCSlot, entries)} }

func (e *refEHC) slot(block uint64) *refEHCSlot {
	return &e.hist[block%uint64(len(e.hist))]
}

// endGeneration trains the history with a finished generation's hit
// count: averaged into the prediction on a tag match, replacing the slot
// otherwise — exactly the cache's EHC.
func (e *refEHC) endGeneration(block, hits uint64) {
	h := e.slot(block)
	if h.valid && h.tag == block {
		h.pred = (h.pred + hits) / 2
		return
	}
	*h = refEHCSlot{tag: block, pred: hits, valid: true}
}

// expected is the line's expected remaining hits: prediction minus hits
// observed this generation, floored at zero; no history predicts zero.
func (e *refEHC) expected(ln refLine) uint64 {
	h := e.slot(ln.block)
	if h.valid && h.tag == ln.block && h.pred > ln.hits {
		return h.pred - ln.hits
	}
	return 0
}

// snapshot renders the history in cache.SnapshotEHC form.
func (e *refEHC) snapshot() []cache.EHCHistSnapshot {
	var out []cache.EHCHistSnapshot
	for i := range e.hist {
		if e.hist[i].valid {
			out = append(out, cache.EHCHistSnapshot{Slot: i, Tag: e.hist[i].tag, Pred: e.hist[i].pred})
		}
	}
	return out
}

// refWayMemo is the reference way-memoization table. The engine's memo
// remembers which physical way a block occupies; the reference cache has
// no stable way numbers (sets are recency lists), so the reference memo
// tracks only which block each slot memoizes — the engine's way
// correctness is checked separately by cache.CheckWayMemo. Both sides
// see the same install/invalidate event stream, so slots and statistics
// must match exactly.
type refWayMemo struct {
	slots []refWayMemoSlot
	stats cache.WayMemoStats
}

type refWayMemoSlot struct {
	tag   uint64
	valid bool
}

func newRefWayMemo(entries int) *refWayMemo {
	return &refWayMemo{slots: make([]refWayMemoSlot, entries)}
}

func (m *refWayMemo) slot(block uint64) *refWayMemoSlot {
	return &m.slots[block%uint64(len(m.slots))]
}

func (m *refWayMemo) hit(block uint64) bool {
	s := m.slot(block)
	return s.valid && s.tag == block
}

func (m *refWayMemo) install(block uint64) {
	s := m.slot(block)
	if s.valid && s.tag == block {
		return
	}
	if s.valid {
		m.stats.Displaced++
	}
	m.stats.Installs++
	*s = refWayMemoSlot{tag: block, valid: true}
}

func (m *refWayMemo) invalidate(block uint64) {
	s := m.slot(block)
	if s.valid && s.tag == block {
		*s = refWayMemoSlot{}
		m.stats.Invalidates++
	}
}

func (m *refWayMemo) live() uint64 {
	n := uint64(0)
	for i := range m.slots {
		if m.slots[i].valid {
			n++
		}
	}
	return n
}

// snapshot renders the live slots in cache.SnapshotWayMemo form.
func (m *refWayMemo) snapshot() []cache.WayMemoSnapshot {
	var out []cache.WayMemoSnapshot
	for i := range m.slots {
		if m.slots[i].valid {
			out = append(out, cache.WayMemoSnapshot{Slot: i, Tag: m.slots[i].tag})
		}
	}
	return out
}

// conservation checks the reference memo's own install/displace/
// invalidate accounting (the same invariant cache.CheckWayMemo enforces
// on the engine side).
func (m *refWayMemo) conservation() error {
	return CheckWayMemoConservation(m.stats, m.live())
}
