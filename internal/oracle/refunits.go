package oracle

import (
	"fmt"

	"selcache/internal/cache"
	"selcache/internal/mat"
	"selcache/internal/mem"
	"selcache/internal/tlb"
)

// This file holds the naive reference models of every stateful hardware
// unit the optimized engine implements with clever data structures. Each
// model is written straight from the unit's documented policy: LRU order
// is an explicit slice with the most-recently-used element first, lookups
// are linear scans, and set/slot indexing is plain modulo arithmetic. No
// packed order words, no open addressing — if it is not obvious, it does
// not belong here.

// refLine is one resident block (or page, or double word) of a reference
// store, keyed by its block number. hits counts the current generation's
// hits and is only maintained by refCaches running the EHC policy.
type refLine struct {
	block uint64
	dirty bool
	hits  uint64
}

// moveToFront makes entries[i] the MRU element.
func moveToFront(entries []refLine, i int) {
	e := entries[i]
	copy(entries[1:i+1], entries[:i])
	entries[0] = e
}

// refCache is the reference set-associative write-back cache (mirror of
// cache.Cache). Replacement is LRU — the set's last element — unless an
// EHC predictor is attached (ehc non-nil), in which case the victim is
// the minimum-expected-hits line, ties to the least recently used. A
// reference way memo (memo non-nil) is consulted before the tag scan and
// maintained at every install and invalidation, mirroring
// cache.LookupSlow's event order exactly.
type refCache struct {
	cfg  cache.Config
	sets [][]refLine // each ordered MRU first

	ehc  *refEHC
	memo *refWayMemo

	stats cache.Stats
	// dirtyMade counts transitions into the dirty state (a write hit on a
	// clean line, or a dirty fill of a line that was not already dirty).
	// Write-back conservation: every such transition must eventually leave
	// as a dirty eviction or a dirty Remove, or still be resident dirty.
	dirtyMade    uint64
	removedDirty uint64
}

func newRefCache(cfg cache.Config) *refCache {
	return &refCache{cfg: cfg, sets: make([][]refLine, cfg.Sets())}
}

func (c *refCache) blockOf(a mem.Addr) uint64 { return uint64(a) / uint64(c.cfg.Block) }

func (c *refCache) setOf(block uint64) int { return int(block % uint64(c.cfg.Sets())) }

// lookup probes for the block containing a; a hit refreshes recency and
// records a store's dirty bit.
func (c *refCache) lookup(a mem.Addr, write bool) bool {
	c.stats.Accesses++
	block := c.blockOf(a)
	set := c.sets[c.setOf(block)]
	memoHit := false
	if c.memo != nil {
		c.memo.stats.Probes++
		memoHit = c.memo.hit(block)
		if memoHit {
			c.memo.stats.Hits++
		}
	}
	for i := range set {
		if set[i].block != block {
			continue
		}
		if write && !set[i].dirty {
			set[i].dirty = true
			c.dirtyMade++
		}
		if c.ehc != nil {
			set[i].hits++
		}
		moveToFront(set, i)
		c.stats.Hits++
		if c.memo != nil && !memoHit {
			c.memo.install(block)
		}
		return true
	}
	if memoHit {
		panic("oracle: way-memo hit for a block not resident in the reference cache")
	}
	c.stats.Misses++
	return false
}

// contains reports residency without touching recency or statistics.
func (c *refCache) contains(a mem.Addr) bool {
	block := c.blockOf(a)
	for _, ln := range c.sets[c.setOf(block)] {
		if ln.block == block {
			return true
		}
	}
	return false
}

// victimIndex picks the line a fill into a full set displaces: the LRU
// line (the last element) for LRU replacement, or the minimum-expected-
// hits line under EHC. The scan walks LRU-to-MRU with a strict minimum,
// so expectation ties go to the least recently used line — the same walk
// the cache's EHC victim makes over its recency-order word.
func (c *refCache) victimIndex(set []refLine) int {
	if c.ehc == nil {
		return len(set) - 1
	}
	vi := -1
	var ve uint64
	for i := len(set) - 1; i >= 0; i-- {
		if e := c.ehc.expected(set[i]); vi < 0 || e < ve {
			vi, ve = i, e
		}
	}
	return vi
}

// victimBlock predicts what a fill for a would displace: the victim line
// of the set, and only if the set is full (a fill lands in an empty way
// otherwise).
func (c *refCache) victimBlock(a mem.Addr) (mem.Addr, bool) {
	set := c.sets[c.setOf(c.blockOf(a))]
	if len(set) < c.cfg.Assoc {
		return 0, false
	}
	return mem.Addr(set[c.victimIndex(set)].block * uint64(c.cfg.Block)), true
}

// fill installs the block containing a, evicting the set's LRU line when
// full. Filling a resident block refreshes it and ORs the dirty bit.
func (c *refCache) fill(a mem.Addr, dirty bool) cache.Evicted {
	block := c.blockOf(a)
	s := c.setOf(block)
	set := c.sets[s]
	for i := range set {
		if set[i].block != block {
			continue
		}
		if dirty && !set[i].dirty {
			set[i].dirty = true
			c.dirtyMade++
		}
		if c.ehc != nil {
			set[i].hits++
		}
		moveToFront(set, i)
		return cache.Evicted{}
	}
	ev := cache.Evicted{}
	if len(set) == c.cfg.Assoc {
		vi := c.victimIndex(set)
		victim := set[vi]
		ev = cache.Evicted{
			BlockAddr: mem.Addr(victim.block * uint64(c.cfg.Block)),
			Dirty:     victim.dirty,
			Valid:     true,
		}
		c.stats.Evictions++
		if victim.dirty {
			c.stats.DirtyEvictions++
		}
		if c.ehc != nil {
			c.ehc.endGeneration(victim.block, victim.hits)
		}
		if c.memo != nil {
			c.memo.invalidate(victim.block)
		}
		set = append(set[:vi], set[vi+1:]...)
	}
	if dirty {
		c.dirtyMade++
	}
	c.stats.Fills++
	c.sets[s] = append([]refLine{{block: block, dirty: dirty}}, set...)
	if c.memo != nil {
		c.memo.install(block)
	}
	return ev
}

// remove invalidates the block containing a if resident, returning its
// dirty bit (victim-cache swaps).
func (c *refCache) remove(a mem.Addr) (dirty, ok bool) {
	block := c.blockOf(a)
	s := c.setOf(block)
	set := c.sets[s]
	for i := range set {
		if set[i].block != block {
			continue
		}
		dirty = set[i].dirty
		if dirty {
			c.removedDirty++
		}
		if c.ehc != nil {
			c.ehc.endGeneration(set[i].block, set[i].hits)
		}
		if c.memo != nil {
			c.memo.invalidate(block)
		}
		c.sets[s] = append(set[:i], set[i+1:]...)
		return dirty, true
	}
	return false, false
}

// snapshot renders the cache in the same form cache.Cache.SnapshotSets
// produces.
func (c *refCache) snapshot() [][]cache.LineSnapshot {
	out := make([][]cache.LineSnapshot, len(c.sets))
	for s, set := range c.sets {
		snap := make([]cache.LineSnapshot, len(set))
		for i, ln := range set {
			snap[i] = cache.LineSnapshot{
				BlockAddr: mem.Addr(ln.block * uint64(c.cfg.Block)),
				Dirty:     ln.dirty,
			}
		}
		out[s] = snap
	}
	return out
}

// snapshotEHC renders the per-line generation hit counts in
// cache.SnapshotEHC form (valid lines MRU first).
func (c *refCache) snapshotEHC() [][]cache.EHCLineSnapshot {
	out := make([][]cache.EHCLineSnapshot, len(c.sets))
	for s, set := range c.sets {
		snap := make([]cache.EHCLineSnapshot, len(set))
		for i, ln := range set {
			snap[i] = cache.EHCLineSnapshot{Block: ln.block, Hits: ln.hits}
		}
		out[s] = snap
	}
	return out
}

// conservation checks the write-back conservation invariant: dirty bits
// created == dirty bits that left (evictions and removals) + dirty bits
// still resident.
func (c *refCache) conservation() error {
	var resident uint64
	for _, set := range c.sets {
		for _, ln := range set {
			if ln.dirty {
				resident++
			}
		}
	}
	if got := c.stats.DirtyEvictions + c.removedDirty + resident; got != c.dirtyMade {
		return fmt.Errorf("dirty-writeback conservation: created %d, accounted %d (evicted %d + removed %d + resident %d)",
			c.dirtyMade, got, c.stats.DirtyEvictions, c.removedDirty, resident)
	}
	return nil
}

// refFA is the reference fully-associative LRU store: a single MRU-first
// slice (mirror of cache.FA).
type refFA struct {
	capacity int
	entries  []refLine
	// newInserts counts inserts of non-resident keys; takes counts
	// removals via take; evictions counts capacity evictions. Conservation:
	// newInserts == takes + evictions + len(entries).
	newInserts uint64
	takes      uint64
	evictions  uint64
}

func newRefFA(capacity int) *refFA { return &refFA{capacity: capacity} }

// probe refreshes recency and ORs dirty on a hit, returning the updated
// payload.
func (f *refFA) probe(key uint64, dirty bool) (wasDirty, hit bool) {
	for i := range f.entries {
		if f.entries[i].block != key {
			continue
		}
		f.entries[i].dirty = f.entries[i].dirty || dirty
		moveToFront(f.entries, i)
		return f.entries[0].dirty, true
	}
	return false, false
}

// take removes key if present, returning its payload.
func (f *refFA) take(key uint64) (dirty, ok bool) {
	for i := range f.entries {
		if f.entries[i].block != key {
			continue
		}
		dirty = f.entries[i].dirty
		f.entries = append(f.entries[:i], f.entries[i+1:]...)
		f.takes++
		return dirty, true
	}
	return false, false
}

// insert installs key as MRU, evicting the LRU entry when full; inserting
// a resident key refreshes it and ORs dirty.
func (f *refFA) insert(key uint64, dirty bool) (evictedKey uint64, evictedDirty, evicted bool) {
	for i := range f.entries {
		if f.entries[i].block != key {
			continue
		}
		f.entries[i].dirty = f.entries[i].dirty || dirty
		moveToFront(f.entries, i)
		return 0, false, false
	}
	if len(f.entries) == f.capacity {
		last := f.entries[len(f.entries)-1]
		evictedKey, evictedDirty, evicted = last.block, last.dirty, true
		f.entries = f.entries[:len(f.entries)-1]
		f.evictions++
	}
	f.newInserts++
	f.entries = append([]refLine{{block: key, dirty: dirty}}, f.entries...)
	return evictedKey, evictedDirty, evicted
}

// snapshot renders the store in cache.FA.Snapshot form.
func (f *refFA) snapshot() []cache.FASnapshot {
	out := make([]cache.FASnapshot, len(f.entries))
	for i, e := range f.entries {
		out[i] = cache.FASnapshot{Key: e.block, Dirty: e.dirty}
	}
	return out
}

// conservation checks that every key ever newly inserted either left
// through take or eviction or is still resident.
func (f *refFA) conservation() error {
	if got := f.takes + f.evictions + uint64(len(f.entries)); got != f.newInserts {
		return fmt.Errorf("FA conservation: %d new inserts, accounted %d (takes %d + evictions %d + resident %d)",
			f.newInserts, got, f.takes, f.evictions, len(f.entries))
	}
	return nil
}

// refVictim is the reference victim cache (mirror of cache.Victim).
type refVictim struct {
	fa        *refFA
	blockSize uint64
	stats     cache.VictimStats
}

func newRefVictim(entries, blockSize int) *refVictim {
	return &refVictim{fa: newRefFA(entries), blockSize: uint64(blockSize)}
}

func (v *refVictim) probe(a mem.Addr) (dirty, hit bool) {
	v.stats.Probes++
	dirty, hit = v.fa.take(uint64(a) / v.blockSize)
	if hit {
		v.stats.Hits++
	}
	return dirty, hit
}

func (v *refVictim) insert(a mem.Addr, dirty bool) cache.Evicted {
	v.stats.Inserts++
	key, d, ev := v.fa.insert(uint64(a)/v.blockSize, dirty)
	if !ev {
		return cache.Evicted{}
	}
	return cache.Evicted{BlockAddr: mem.Addr(key * v.blockSize), Dirty: d, Valid: true}
}

// refBuffer is the reference bypass buffer of 8-byte double words (mirror
// of mat.Buffer).
type refBuffer struct {
	fa    *refFA
	stats mat.BufferStats
}

const refDwordBytes = 8

func newRefBuffer(words int) *refBuffer { return &refBuffer{fa: newRefFA(words)} }

func (b *refBuffer) probe(a mem.Addr, write bool) bool {
	b.stats.Probes++
	_, hit := b.fa.probe(uint64(a)/refDwordBytes, write)
	if hit {
		b.stats.Hits++
	}
	return hit
}

func (b *refBuffer) fill(a mem.Addr, dirty bool) (writeback bool) {
	b.stats.Fills++
	_, evDirty, ev := b.fa.insert(uint64(a)/refDwordBytes, dirty)
	if ev && evDirty {
		b.stats.DirtyEvts++
		return true
	}
	return false
}

// fillSpan installs span double words starting at the referenced one,
// never crossing the blockBytes-aligned boundary; only the first carries
// the store's dirty bit.
func (b *refBuffer) fillSpan(a mem.Addr, dirty bool, span, blockBytes int) (writebacks int) {
	hot := uint64(a) / refDwordBytes
	blockStart := uint64(a) - uint64(a)%uint64(blockBytes)
	limit := (blockStart + uint64(blockBytes)) / refDwordBytes
	for w := 0; w < span && hot+uint64(w) < limit; w++ {
		key := hot + uint64(w)
		b.stats.Fills++
		_, evDirty, ev := b.fa.insert(key, dirty && key == hot)
		if ev && evDirty {
			b.stats.DirtyEvts++
			writebacks++
		}
	}
	return writebacks
}

// refTLB is the reference set-associative LRU TLB (mirror of tlb.TLB,
// which fills on miss as part of the translate).
type refTLB struct {
	cfg   tlb.Config
	sets  [][]uint64 // page numbers, MRU first
	stats tlb.Stats
}

func newRefTLB(cfg tlb.Config) *refTLB {
	return &refTLB{cfg: cfg, sets: make([][]uint64, cfg.Entries/cfg.Assoc)}
}

func (t *refTLB) translate(a mem.Addr) bool {
	t.stats.Accesses++
	page := uint64(a) / uint64(t.cfg.PageSize)
	s := int(page % uint64(len(t.sets)))
	set := t.sets[s]
	for i, p := range set {
		if p != page {
			continue
		}
		copy(set[1:i+1], set[:i])
		set[0] = page
		return true
	}
	t.stats.Misses++
	if len(set) == t.cfg.Assoc {
		set = set[:len(set)-1]
	}
	t.sets[s] = append([]uint64{page}, set...)
	return false
}

func (t *refTLB) snapshot() [][]uint64 {
	out := make([][]uint64, len(t.sets))
	for s, set := range t.sets {
		// make (not append to nil) so empty sets compare equal to the
		// engine's always-non-nil snapshot slices under DeepEqual.
		pages := make([]uint64, len(set))
		copy(pages, set)
		out[s] = pages
	}
	return out
}

// refMATEntry is one direct-mapped MAT slot.
type refMATEntry struct {
	tag       uint64
	lastBlock uint64
	counter   uint32
}

// refMAT is the reference Memory Access Table (mirror of mat.Table).
type refMAT struct {
	cfg      mat.Config
	entries  []refMATEntry
	sinceAge uint64
	stats    mat.Stats
}

func newRefMAT(cfg mat.Config) *refMAT {
	return &refMAT{cfg: cfg, entries: make([]refMATEntry, cfg.Entries)}
}

func (t *refMAT) macro(a mem.Addr) uint64 { return uint64(a) / uint64(t.cfg.MacroBlock) }

func (t *refMAT) touch(a mem.Addr) {
	t.stats.Touches++
	m := t.macro(a)
	b := uint64(a) / uint64(t.cfg.BlockBytes)
	e := &t.entries[m%uint64(len(t.entries))]
	if e.tag != m {
		// A conflicting macro-block steals the slot; the first access must
		// count, so pre-set lastBlock to a value b can never equal.
		e.tag = m
		e.counter = 0
		e.lastBlock = b + 1
		t.stats.TagReplaces++
	}
	if e.lastBlock != b && e.counter < t.cfg.CounterMax {
		e.counter++
	}
	e.lastBlock = b
	if t.cfg.AgePeriod > 0 {
		t.sinceAge++
		if t.sinceAge >= t.cfg.AgePeriod {
			t.sinceAge = 0
			t.stats.Agings++
			for i := range t.entries {
				t.entries[i].counter /= 2
			}
		}
	}
}

func (t *refMAT) counter(a mem.Addr) uint32 {
	m := t.macro(a)
	e := t.entries[m%uint64(len(t.entries))]
	if e.tag != m {
		return 0
	}
	return e.counter
}

// shouldBypass is the frequency-comparison caching decision: bypass only
// when the missing macro-block is cold in absolute terms (the ceiling
// depends on the spatial prediction) and accessed BypassRatio times less
// frequently than the would-be victim's macro-block.
func (t *refMAT) shouldBypass(missAddr, victimAddr mem.Addr, victimValid, spatial bool) bool {
	if !victimValid {
		return false
	}
	miss := t.counter(missAddr)
	ceiling := t.cfg.ColdMaxSparse
	if spatial {
		ceiling = t.cfg.ColdMax
	}
	if ceiling > 0 && miss >= ceiling {
		return false
	}
	return miss*t.cfg.BypassRatio < t.counter(victimAddr)
}

func (t *refMAT) snapshot() []mat.EntrySnapshot {
	out := make([]mat.EntrySnapshot, len(t.entries))
	for i, e := range t.entries {
		out[i] = mat.EntrySnapshot{Tag: e.tag, LastBlock: e.lastBlock, Counter: e.counter}
	}
	return out
}

// refSLDTEntry is one direct-mapped SLDT slot.
type refSLDTEntry struct {
	tag       uint64
	lastBlock uint64
	counter   int8
	valid     bool
}

// refSLDT is the reference Spatial Locality Detection Table (mirror of
// mat.SLDT): the saturating counter moves up on adjacent-block accesses
// within a macro-block, down on jumps, and same-block accesses are
// neutral.
type refSLDT struct {
	cfg       mat.Config
	blockSize uint64
	entries   []refSLDTEntry
	stats     mat.Stats
}

const (
	refSLDTMax = 7
	refSLDTMin = -8
)

func newRefSLDT(cfg mat.Config, blockSize int) *refSLDT {
	return &refSLDT{cfg: cfg, blockSize: uint64(blockSize), entries: make([]refSLDTEntry, cfg.SLDTEntries)}
}

func (s *refSLDT) observe(a mem.Addr) {
	m := uint64(a) / uint64(s.cfg.MacroBlock)
	b := uint64(a) / s.blockSize
	e := &s.entries[m%uint64(len(s.entries))]
	if !e.valid || e.tag != m {
		*e = refSLDTEntry{tag: m, lastBlock: b, counter: 0, valid: true}
		return
	}
	switch {
	case b == e.lastBlock:
		// Temporal reuse: no evidence either way.
	case b == e.lastBlock+1 || b == e.lastBlock-1:
		if e.counter < refSLDTMax {
			e.counter++
		}
	default:
		if e.counter > refSLDTMin {
			e.counter--
		}
	}
	e.lastBlock = b
}

func (s *refSLDT) spatial(a mem.Addr) bool {
	m := uint64(a) / uint64(s.cfg.MacroBlock)
	e := s.entries[m%uint64(len(s.entries))]
	ok := e.valid && e.tag == m && e.counter >= s.cfg.SpatialThreshold
	if ok {
		s.stats.SpatialYes++
	} else {
		s.stats.SpatialNo++
	}
	return ok
}

func (s *refSLDT) snapshot() []mat.SLDTEntrySnapshot {
	out := make([]mat.SLDTEntrySnapshot, len(s.entries))
	for i, e := range s.entries {
		out[i] = mat.SLDTEntrySnapshot{Tag: e.tag, LastBlock: e.lastBlock, Counter: e.counter, Valid: e.valid}
	}
	return out
}

// refClassifier is the reference shadow miss classifier (mirror of
// cache.Classifier): a fully-associative LRU shadow of equal capacity
// plus a seen-set splits misses into compulsory/conflict/capacity.
type refClassifier struct {
	shadow    *refFA
	blockSize uint64
	seen      map[uint64]bool
	stats     cache.ClassifyStats
}

func newRefClassifier(cfg cache.Config) *refClassifier {
	return &refClassifier{
		shadow:    newRefFA(cfg.Lines()),
		blockSize: uint64(cfg.Block),
		seen:      make(map[uint64]bool),
	}
}

func (c *refClassifier) observe(a mem.Addr, miss bool) {
	block := uint64(a) / c.blockSize
	_, inShadow := c.shadow.probe(block, false)
	if miss {
		switch {
		case !c.seen[block]:
			c.stats.Compulsory++
		case inShadow:
			c.stats.Conflict++
		default:
			c.stats.Capacity++
		}
	}
	if !inShadow {
		c.shadow.insert(block, false)
	}
	c.seen[block] = true
}
