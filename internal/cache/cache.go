// Package cache implements the cache structures of the simulated memory
// hierarchy: set-associative caches with true-LRU or Expected-Hit-Count
// replacement and write-back/write-allocate policy (the data TLB is one
// too, a cache of page-sized lines), fully-associative
// victim caches (Jouppi), a generic fully-associative LRU store reused by
// the bypass buffer, and a shadow classifier that splits misses into
// compulsory, capacity and conflict components (the paper reports that
// conflict misses are 53–72% of all misses in its benchmark suite, so the
// split is a first-class statistic here).
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"selcache/internal/mem"
)

// ErrAssocTooWide reports an associativity above MaxAssoc ways.
var ErrAssocTooWide = errors.New("cache: associativity above 16 ways")

// Config describes one cache level.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// Assoc is the set associativity (at most MaxAssoc).
	Assoc int
	// Block is the line size in bytes.
	Block int
}

// Lines returns the number of lines.
func (c Config) Lines() int { return c.Size / c.Block }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

func (c Config) validate() error {
	switch {
	case c.Size <= 0 || c.Assoc <= 0 || c.Block <= 0:
		return fmt.Errorf("cache: non-positive config %+v", c)
	case c.Assoc > MaxAssoc:
		return fmt.Errorf("%w: %d", ErrAssocTooWide, c.Assoc)
	case c.Block&(c.Block-1) != 0:
		return fmt.Errorf("cache: block size %d not a power of two", c.Block)
	case c.Size%c.Block != 0:
		return fmt.Errorf("cache: size %d not a multiple of block %d", c.Size, c.Block)
	case c.Lines()%c.Assoc != 0:
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", c.Lines(), c.Assoc)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("cache: %d sets not a power of two", c.Sets())
	}
	return nil
}

// Stats collects per-cache counters.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
	// Fills counts line installations (refreshes of already-resident
	// blocks are not fills). The energy model charges tag+data writes
	// per fill.
	Fills uint64
}

// MissRate returns Misses/Accesses (zero when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// setState is the per-set metadata of the packed layout: the recency
// order plus one bit per way for validity and dirtiness. A set's tags
// live beside it in Cache.tags.
type setState struct {
	order        Order
	valid, dirty uint16
}

// Evicted describes a line displaced by a fill.
type Evicted struct {
	BlockAddr mem.Addr
	Dirty     bool
	Valid     bool
}

// Cache is a set-associative, write-back/write-allocate cache with true-LRU
// replacement, or Expected-Hit-Count replacement once EnableEHC is called.
// Fill policy is decoupled from lookup so that a controller (internal/sim)
// can interpose bypass or victim-cache decisions between a miss and the
// corresponding fill.
//
// State is structure-of-arrays: tags holds every line's block number with
// a set's ways contiguous, and sets holds one setState per set. The MRU
// way is the recency order's low nibble, so a probe that hits the line
// that hit last costs one tag compare and writes nothing but the counters.
type Cache struct {
	cfg       Config
	blockBits uint
	setMask   uint64
	assoc     int
	full      uint16 // the valid mask of a full set
	tags      []uint64
	sets      []setState

	// plain is true while neither EHC nor a way memo is attached; only
	// then may LookupFast resolve a probe.
	plain bool
	ehc   *ehc
	// memo, when non-nil, is the way-memoization table; LookupSlow
	// consults and maintains it.
	memo *wayMemo

	// Stats accumulates hit/miss counters; the embedding controller is
	// free to reset it between measurement windows.
	Stats Stats
}

// New builds a cache; it panics on an invalid configuration, which is a
// programming error in experiment setup.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	c := &Cache{
		cfg:       cfg,
		blockBits: uint(bits.TrailingZeros(uint(cfg.Block))),
		setMask:   uint64(cfg.Sets() - 1),
		assoc:     cfg.Assoc,
		full:      uint16(1<<cfg.Assoc - 1),
		tags:      make([]uint64, cfg.Lines()),
		sets:      make([]setState, cfg.Sets()),
	}
	c.Reset()
	return c
}

// Reset empties the cache without reallocating its arrays: every line
// invalid, counters zero, no EHC or way memo attached — the state
// New(c.Config()) builds.
func (c *Cache) Reset() {
	clear(c.tags)
	init := setState{order: InitialOrder(c.assoc)}
	for i := range c.sets {
		c.sets[i] = init
	}
	c.plain = true
	c.ehc = nil
	c.memo = nil
	c.Stats = Stats{}
}

// EnableEHC switches replacement to Expected-Hit-Count with a
// histEntries-slot history table (a positive power of two; panics
// otherwise). It must be called before any traffic; attaching mid-stream
// would start generations at lines already resident.
func (c *Cache) EnableEHC(histEntries int) {
	c.ehc = newEHC(c.cfg.Lines(), histEntries)
	c.plain = false
}

// EnableWayMemo attaches a way-memoization table of the given size
// (power of two). Like EnableEHC, call before any traffic.
func (c *Cache) EnableWayMemo(entries int) {
	c.memo = newWayMemo(entries)
	c.plain = false
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr returns the address of the block containing a.
func (c *Cache) BlockAddr(a mem.Addr) mem.Addr {
	return a &^ (mem.Addr(c.cfg.Block) - 1)
}

// BlockShift returns log2 of the line size: addr >> BlockShift() is the
// block number Lookup works with.
func (c *Cache) BlockShift() uint { return c.blockBits }

// find returns the way of set s holding block, or -1.
func (c *Cache) find(s uint64, block uint64) int {
	base := int(s) * c.assoc
	valid := c.sets[s].valid
	for i, t := range c.tags[base : base+c.assoc] {
		if t == block && valid>>uint(i)&1 != 0 {
			return i
		}
	}
	return -1
}

// Lookup probes the cache for the block containing a. On a hit it updates
// recency (and the dirty bit for writes) and returns true. On a miss it
// returns false without allocating; the caller decides whether and how to
// fill. Stats are updated either way. It is LookupFast composed with
// LookupSlow on the block number (addr >> BlockShift); hot probe sites,
// which have the block number precomputed, write the pair out so the fast
// half inlines (the composition itself exceeds the inliner's budget).
func (c *Cache) Lookup(a mem.Addr, write bool) bool {
	block := uint64(a) >> c.blockBits
	return c.LookupFast(block, write) || c.LookupSlow(block, write)
}

// LookupFast resolves a probe that hits the set's MRU line: one tag
// compare, no recency change (the line already leads the order). It
// declines — returning false with nothing touched — on any other probe,
// and always while EHC or a way memo is attached; the caller must then
// call LookupSlow with the same arguments. The split exists so this path,
// which resolves most probes of any access stream with locality, inlines
// at the probe site.
func (c *Cache) LookupFast(block uint64, write bool) bool {
	s := block & c.setMask
	st := &c.sets[s]
	w := st.order.MRU()
	if !c.plain || st.valid>>w&1 == 0 || c.tags[int(s)*c.assoc+int(w)] != block {
		return false
	}
	c.Stats.Accesses++
	c.Stats.Hits++
	if write {
		st.dirty |= 1 << w
	}
	return true
}

// LookupSlow is the complete probe: the way memo first when attached (a
// memo hit skips every tag compare; the memo is sound because entries are
// invalidated the moment their line leaves), else the set walk. A hit
// moves the way to the front of the order, sets the dirty bit for a
// write, counts an EHC generation hit and memoizes the way; recency,
// dirty bits, statistics and timing end exactly as the tag path alone
// would leave them.
func (c *Cache) LookupSlow(block uint64, write bool) bool {
	c.Stats.Accesses++
	s := block & c.setMask
	w := -1
	if c.memo != nil {
		c.memo.stats.Probes++
		if mw, ok := c.memo.probe(block); ok {
			if c.sets[s].valid>>uint(mw)&1 == 0 || c.tags[int(s)*c.assoc+mw] != block {
				panic("cache: way-memo entry points at a non-matching line")
			}
			c.memo.stats.Hits++
			w = mw
		} else if w = c.find(s, block); w >= 0 {
			c.memo.install(block, w)
		}
	} else {
		w = c.find(s, block)
	}
	if w < 0 {
		c.Stats.Misses++
		return false
	}
	c.touch(s, w, write)
	c.Stats.Hits++
	return true
}

// touch records a hit (or a refreshing fill) on way w of set s.
func (c *Cache) touch(s uint64, w int, dirty bool) {
	st := &c.sets[s]
	st.order = st.order.Touch(w)
	if dirty {
		st.dirty |= 1 << uint(w)
	}
	if c.ehc != nil {
		c.ehc.hits[int(s)*c.assoc+w]++
	}
}

// Contains reports whether the block containing a is resident, without
// touching recency or statistics.
func (c *Cache) Contains(a mem.Addr) bool {
	block := uint64(a) >> c.blockBits
	return c.find(block&c.setMask, block) >= 0
}

// victim is the single victim-selection function: every fill path (Fill,
// FillMiss, VictimWay/FillWay) routes through it. The victim is the first
// invalid way; in a full set it is the LRU way (the order's last nibble),
// or under EHC the fewest-expected-hits way, ties to the least recently
// used.
func (c *Cache) victim(s uint64) int {
	st := &c.sets[s]
	if c.ehc != nil && st.valid == c.full {
		return c.ehc.victim(st.order, c.assoc, int(s)*c.assoc, c.tags)
	}
	return st.order.Victim(c.assoc, st.valid)
}

// Fill installs the block containing a, evicting the victim line of its
// set if necessary, and returns the displaced line. dirty marks the
// incoming line dirty (write-allocate stores). Filling an already-
// resident block just refreshes it.
func (c *Cache) Fill(a mem.Addr, dirty bool) Evicted {
	block := uint64(a) >> c.blockBits
	s := block & c.setMask
	if w := c.find(s, block); w >= 0 {
		c.touch(s, w, dirty)
		return Evicted{}
	}
	return c.fillWay(block, c.victim(s), dirty)
}

// FillMiss is Fill for a block the caller knows is absent: the Lookup that
// just missed was on this same set and nothing has touched the set since
// (L2 traffic, victim-cache probes and bypass-buffer activity do not).
// Skipping the residency scan roughly halves the fill cost, and fills sit
// on the miss path of every simulated access.
func (c *Cache) FillMiss(a mem.Addr, dirty bool) Evicted {
	block := uint64(a) >> c.blockBits
	return c.fillWay(block, c.victim(block&c.setMask), dirty)
}

// VictimWay returns the way a Fill for a would displace, with that line's
// block address and whether it is valid, without modifying the cache. A
// caller that goes on to fill hands the way back to FillWay instead of
// choosing twice; the triple is only meaningful while the set is
// untouched.
func (c *Cache) VictimWay(a mem.Addr) (way int, victim mem.Addr, valid bool) {
	block := uint64(a) >> c.blockBits
	s := block & c.setMask
	way = c.victim(s)
	if c.sets[s].valid>>uint(way)&1 == 0 {
		return way, 0, false
	}
	return way, mem.Addr(c.tags[int(s)*c.assoc+way] << c.blockBits), true
}

// FillWay completes a fill into the way VictimWay chose. The caller
// guarantees the block is absent and the set untouched since VictimWay.
func (c *Cache) FillWay(a mem.Addr, way int, dirty bool) Evicted {
	return c.fillWay(uint64(a)>>c.blockBits, way, dirty)
}

// fillWay installs block into the given way of its set, charging eviction
// statistics for a displaced valid line. It is the single line-install
// site: EHC generation accounting, way-memo maintenance (invalidate the
// evicted block's entry, then memoize the incoming block) and the Fills
// counter all live here.
func (c *Cache) fillWay(block uint64, way int, dirty bool) Evicted {
	s := block & c.setMask
	st := &c.sets[s]
	i := int(s)*c.assoc + way
	bit := uint16(1) << uint(way)
	ev := Evicted{}
	if st.valid&bit != 0 {
		old := c.tags[i]
		ev = Evicted{
			BlockAddr: mem.Addr(old << c.blockBits),
			Dirty:     st.dirty&bit != 0,
			Valid:     true,
		}
		c.Stats.Evictions++
		if ev.Dirty {
			c.Stats.DirtyEvictions++
		}
		if c.ehc != nil {
			c.ehc.endGeneration(old, i)
		}
		if c.memo != nil {
			c.memo.invalidate(old)
		}
	}
	c.tags[i] = block
	st.valid |= bit
	if dirty {
		st.dirty |= bit
	} else {
		st.dirty &^= bit
	}
	st.order = st.order.Touch(way)
	c.Stats.Fills++
	if c.memo != nil {
		c.memo.install(block, way)
	}
	return ev
}

// invalidate clears way w of set s, ending its EHC generation and its
// way-memo entry; it returns the line's dirty bit.
func (c *Cache) invalidate(s uint64, w int) bool {
	st := &c.sets[s]
	i := int(s)*c.assoc + w
	bit := uint16(1) << uint(w)
	dirty := st.dirty&bit != 0
	st.valid &^= bit
	st.dirty &^= bit
	if c.ehc != nil {
		c.ehc.endGeneration(c.tags[i], i)
	}
	if c.memo != nil {
		c.memo.invalidate(c.tags[i])
	}
	return dirty
}

// Remove invalidates the block containing a if resident, returning its
// dirty bit. Victim-cache swaps use it.
func (c *Cache) Remove(a mem.Addr) (dirty, ok bool) {
	block := uint64(a) >> c.blockBits
	s := block & c.setMask
	w := c.find(s, block)
	if w < 0 {
		return false, false
	}
	return c.invalidate(s, w), true
}

// Flush invalidates every line and returns the number of dirty lines that a
// real machine would have written back.
func (c *Cache) Flush() int {
	dirty := 0
	for s := range c.sets {
		for w := 0; w < c.assoc; w++ {
			if c.sets[s].valid>>uint(w)&1 != 0 && c.invalidate(uint64(s), w) {
				dirty++
			}
		}
	}
	return dirty
}

// Resident returns the number of valid lines (test/diagnostic helper).
func (c *Cache) Resident() int {
	n := 0
	for i := range c.sets {
		n += bits.OnesCount16(c.sets[i].valid)
	}
	return n
}
