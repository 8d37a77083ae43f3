// Package tlb models a data translation lookaside buffer. The simulated
// workloads are data-intensive, so TLB behaviour shifts absolute cycle
// counts; it is included for fidelity with the paper's Table 1 machine even
// though it rarely changes the relative ordering of the schemes.
package tlb

import (
	"errors"
	"fmt"
	"math/bits"

	"selcache/internal/cache"
	"selcache/internal/mem"
)

// Config describes a TLB.
type Config struct {
	// Entries is the total number of translations held.
	Entries int
	// Assoc is the set associativity.
	Assoc int
	// PageSize is the page size in bytes (power of two).
	PageSize int
}

// Stats counts TLB activity.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// ErrAssocTooWide reports an associativity above cache.MaxAssoc ways.
var ErrAssocTooWide = errors.New("tlb: associativity above 16 ways")

// setState is a set's recency order and valid mask; its page tags live
// beside it in TLB.tags.
type setState struct {
	order cache.Order
	valid uint16
}

// TLB is a set-associative, LRU translation buffer in the same packed
// layout as cache.Cache: page tags with a set's ways contiguous, and one
// {order, valid} word per set.
type TLB struct {
	cfg      Config
	pageBits uint
	setMask  uint64
	assoc    int
	tags     []uint64
	sets     []setState
	// Stats accumulates access/miss counters.
	Stats Stats
}

// New builds a TLB; it panics on an invalid configuration.
func New(cfg Config) *TLB {
	sets := cfg.Entries / cfg.Assoc
	switch {
	case cfg.Entries <= 0 || cfg.Assoc <= 0:
		panic(fmt.Sprintf("tlb: bad config %+v", cfg))
	case cfg.Assoc > cache.MaxAssoc:
		panic(fmt.Errorf("%w: %d", ErrAssocTooWide, cfg.Assoc))
	case cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0:
		panic(fmt.Sprintf("tlb: page size %d not a power of two", cfg.PageSize))
	case cfg.Entries%cfg.Assoc != 0 || sets&(sets-1) != 0:
		panic(fmt.Sprintf("tlb: %d entries / %d ways does not give power-of-two sets", cfg.Entries, cfg.Assoc))
	}
	t := &TLB{
		cfg:      cfg,
		pageBits: uint(bits.TrailingZeros(uint(cfg.PageSize))),
		setMask:  uint64(sets - 1),
		assoc:    cfg.Assoc,
		tags:     make([]uint64, cfg.Entries),
		sets:     make([]setState, sets),
	}
	t.Reset()
	return t
}

// Reset empties the TLB without reallocating its arrays: every entry
// invalid and the counters zero — the state New builds.
func (t *TLB) Reset() {
	clear(t.tags)
	init := setState{order: cache.InitialOrder(t.assoc)}
	for i := range t.sets {
		t.sets[i] = init
	}
	t.Stats = Stats{}
}

// Config returns the TLB's geometry.
func (t *TLB) Config() Config { return t.cfg }

// PageShift returns log2 of the page size: addr >> PageShift() is the page
// number Translate works with. The batched replay engine precomputes page
// columns with it.
func (t *TLB) PageShift() uint { return t.pageBits }

// Translate looks up the page containing a, filling on a miss, and reports
// whether the lookup hit.
func (t *TLB) Translate(a mem.Addr) bool {
	return t.TranslatePage(uint64(a) >> t.pageBits)
}

// TranslatePage is Translate with the page number (addr >> PageShift)
// already computed by the batched engine's pure phase. It is TranslateFast
// composed with TranslateSlow; hot probe sites write the pair out so the
// fast half inlines (the composition itself exceeds the inliner's
// budget).
func (t *TLB) TranslatePage(page uint64) bool {
	return t.TranslateFast(page) || t.TranslateSlow(page)
}

// TranslateFast resolves a translation of the set's MRU page: one tag
// compare, no recency change. It declines — returning false with nothing
// touched — on any other page; the caller must then call TranslateSlow
// with the same page. The split exists so this path, which resolves most
// translations (accesses cluster on the current page), inlines at the
// probe site.
func (t *TLB) TranslateFast(page uint64) bool {
	s := page & t.setMask
	st := &t.sets[s]
	w := st.order.MRU()
	if st.valid>>w&1 == 0 || t.tags[int(s)*t.assoc+int(w)] != page {
		return false
	}
	t.Stats.Accesses++
	return true
}

// TranslateSlow is the complete translation: the set walk, filling the
// first invalid way (else the LRU way) on a miss. Either way the page's
// way moves to the front of the order.
func (t *TLB) TranslateSlow(page uint64) bool {
	t.Stats.Accesses++
	s := page & t.setMask
	st := &t.sets[s]
	base := int(s) * t.assoc
	for i, tag := range t.tags[base : base+t.assoc] {
		if tag == page && st.valid>>uint(i)&1 != 0 {
			st.order = st.order.Touch(i)
			return true
		}
	}
	t.Stats.Misses++
	vi := st.order.Victim(t.assoc, st.valid)
	t.tags[base+vi] = page
	st.valid |= 1 << uint(vi)
	st.order = st.order.Touch(vi)
	return false
}

// SnapshotSets returns, per set, the resident page numbers in MRU-to-LRU
// order (the set's recency order word). It exists for the differential
// oracle (internal/oracle) and is cold-path only.
func (t *TLB) SnapshotSets() [][]uint64 {
	out := make([][]uint64, len(t.sets))
	for s, st := range t.sets {
		ways := st.order.ValidWays(t.assoc, st.valid)
		pages := make([]uint64, len(ways))
		for i, w := range ways {
			pages[i] = t.tags[s*t.assoc+w]
		}
		out[s] = pages
	}
	return out
}
