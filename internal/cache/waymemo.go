package cache

// Way memoization (Ishihara & Fallah, arXiv 0710.4703): a small
// direct-mapped table remembering, per recently touched block, the way
// that block occupies. A memo hit resolves the probe with zero tag
// comparisons and a single data-way read — the energy win the
// internal/energy model accounts for — and is sound by construction: an
// entry is installed only when its block demonstrably sits in that way
// (on a tag-matched hit or a fill) and is invalidated the moment the
// line leaves (eviction, removal, flush). Timing and hit/miss statistics
// are untouched: a memo hit is by definition a cache hit the tag path
// would also have found, so cycle counts are byte-identical with the
// memo on or off.

// WayMemoStats counts way-memo activity. The conservation invariant the
// oracle enforces is Installs == Displaced + Invalidates + live entries:
// every installed entry is either displaced by a later install for a
// colliding block, explicitly invalidated when its line leaves the
// cache, or still live.
type WayMemoStats struct {
	// Probes counts lookups that consulted the memo (every lookup while
	// the memo is enabled).
	Probes uint64
	// Hits counts probes resolved by the memo (tag comparisons skipped).
	Hits uint64
	// Installs counts entries created for a block not already memoized
	// in its slot.
	Installs uint64
	// Displaced counts installs that overwrote a live entry for a
	// different block.
	Displaced uint64
	// Invalidates counts live entries cleared because their line left
	// the cache.
	Invalidates uint64
}

type memoEntry struct {
	tag   uint64
	way   uint8
	valid bool
}

type wayMemo struct {
	mask  uint64
	slots []memoEntry
	stats WayMemoStats
}

func newWayMemo(entries int) *wayMemo {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("cache: way-memo entries must be a positive power of two")
	}
	return &wayMemo{mask: uint64(entries - 1), slots: make([]memoEntry, entries)}
}

func (m *wayMemo) probe(block uint64) (int, bool) {
	e := &m.slots[block&m.mask]
	if e.valid && e.tag == block {
		return int(e.way), true
	}
	return 0, false
}

func (m *wayMemo) install(block uint64, way int) {
	e := &m.slots[block&m.mask]
	if e.valid && e.tag == block {
		e.way = uint8(way) // refresh; the way cannot actually have moved
		return
	}
	if e.valid {
		m.stats.Displaced++
	}
	m.stats.Installs++
	*e = memoEntry{tag: block, way: uint8(way), valid: true}
}

func (m *wayMemo) invalidate(block uint64) {
	e := &m.slots[block&m.mask]
	if e.valid && e.tag == block {
		*e = memoEntry{}
		m.stats.Invalidates++
	}
}

func (m *wayMemo) live() uint64 {
	n := uint64(0)
	for i := range m.slots {
		if m.slots[i].valid {
			n++
		}
	}
	return n
}
