package cache

// Expected-Hit-Count replacement (Vakil Ghahani et al., arXiv 1808.05024):
// each line counts its hits per generation (one residency, fill to
// eviction or removal); when a generation ends the count trains a
// direct-mapped history table, averaged with the previous prediction on a
// tag match and replacing the slot otherwise. The victim of a full set is
// the way with the fewest expected remaining hits, where a line's
// expectation is max(predicted − observed, 0); ties break to the least
// recently used way. Block, validity and recency come from the cache's
// own tags, valid mask and order word, so EHC adds only the per-line hit
// counts and the history table. Integer arithmetic throughout, so the
// naive oracle reference model mirrors it exactly.

// ehcHist is one slot of the history table. pred is the running average
// of the block's past per-generation hit counts.
type ehcHist struct {
	tag   uint64
	pred  uint64
	valid bool
}

type ehc struct {
	// hits is the current generation's hit count per line, indexed like
	// Cache.tags; it is zero for every invalid line.
	hits     []uint64
	hist     []ehcHist
	histMask uint64
}

func newEHC(lines, histEntries int) *ehc {
	if histEntries <= 0 || histEntries&(histEntries-1) != 0 {
		panic("cache: EHC history entries must be a positive power of two")
	}
	return &ehc{
		hits:     make([]uint64, lines),
		hist:     make([]ehcHist, histEntries),
		histMask: uint64(histEntries - 1),
	}
}

// endGeneration trains the history with the finished generation of
// block, which occupied line i, and zeroes the line's count.
func (e *ehc) endGeneration(block uint64, i int) {
	hits := e.hits[i]
	e.hits[i] = 0
	h := &e.hist[block&e.histMask]
	if h.valid && h.tag == block {
		h.pred = (h.pred + hits) / 2
		return
	}
	*h = ehcHist{tag: block, pred: hits, valid: true}
}

// expected returns a line's expected remaining hits: the history
// prediction for its block minus the hits already observed this
// generation, floored at zero. A block with no history predicts zero —
// never seen to re-hit, first in line to go.
func (e *ehc) expected(block, hits uint64) uint64 {
	h := &e.hist[block&e.histMask]
	if h.valid && h.tag == block && h.pred > hits {
		return h.pred - hits
	}
	return 0
}

// victim picks the way of a full set to displace: it walks the order from
// LRU to MRU keeping the first strict minimum of expected hits, so among
// equal expectations the least recently used way loses. base is the
// index of the set's first way in tags and hits.
func (e *ehc) victim(o Order, assoc, base int, tags []uint64) int {
	vi := -1
	var ve uint64
	for p := assoc - 1; p >= 0; p-- {
		w := o.At(p)
		if x := e.expected(tags[base+w], e.hits[base+w]); vi < 0 || x < ve {
			vi, ve = w, x
		}
	}
	return vi
}

// EHCLineSnapshot is one valid line of an EHC state snapshot: the block
// it holds and the hits of its current generation.
type EHCLineSnapshot struct {
	Block uint64
	Hits  uint64
}

// EHCHistSnapshot is one valid history-table slot.
type EHCHistSnapshot struct {
	Slot int
	Tag  uint64
	Pred uint64
}

// SnapshotEHC returns the EHC state — per set, the valid lines in
// MRU-to-LRU order with their generation hit counts, and the valid
// history slots in slot order — and whether EHC is attached. The
// differential oracle compares it against its reference model.
func (c *Cache) SnapshotEHC() (lines [][]EHCLineSnapshot, hist []EHCHistSnapshot, ok bool) {
	if c.ehc == nil {
		return nil, nil, false
	}
	lines = make([][]EHCLineSnapshot, len(c.sets))
	for s, st := range c.sets {
		ways := st.order.ValidWays(c.assoc, st.valid)
		snap := make([]EHCLineSnapshot, len(ways))
		for j, w := range ways {
			i := s*c.assoc + w
			snap[j] = EHCLineSnapshot{Block: c.tags[i], Hits: c.ehc.hits[i]}
		}
		lines[s] = snap
	}
	for i, h := range c.ehc.hist {
		if h.valid {
			hist = append(hist, EHCHistSnapshot{Slot: i, Tag: h.tag, Pred: h.pred})
		}
	}
	return lines, hist, true
}
