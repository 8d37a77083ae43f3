// Package mat implements the run-time cache-management hardware the paper
// adopts from Johnson & Hwu: a Memory Access Table (MAT) that tracks access
// frequencies of fixed-size macro-blocks, a Spatial Locality Detection Table
// (SLDT) that watches for sequential-block behaviour, and the selective
// variable-size caching policy built on them — bypass the cache (into a
// small fully-associative bypass buffer) for memory regions that are
// accessed less frequently than the data they would displace, and fetch
// larger blocks when spatial locality is expected.
package mat

import (
	"fmt"
	"math/bits"

	"selcache/internal/mem"
)

// Config parameterizes the mechanism. The defaults (DefaultConfig) follow
// the paper's setup: 4096 MAT entries, 1 KB macro-blocks, a 64-double-word
// fully-associative bypass buffer.
type Config struct {
	// Entries is the number of MAT entries (power of two, direct-mapped).
	Entries int
	// MacroBlock is the macro-block size in bytes (power of two).
	MacroBlock int
	// BlockBytes is the cache-block granularity of frequency counting: a
	// run of accesses inside one block counts once, so byte streams and
	// word streams register the same macro-block frequency. Power of two.
	BlockBytes int
	// CounterMax saturates the frequency counters.
	CounterMax uint32
	// AgePeriod is the number of MAT touches between agings (every
	// counter halved). Aging keeps counters from growing without bound
	// while still letting history persist across program phases — the
	// persistence is precisely what makes a naively always-on mechanism
	// slow after a phase change (Section 5.1 of the paper).
	AgePeriod uint64
	// SLDTEntries is the number of SLDT entries (power of two,
	// direct-mapped).
	SLDTEntries int
	// SpatialThreshold is the SLDT counter value at and above which a
	// macro-block is considered spatially local.
	SpatialThreshold int8
	// BypassRatio tunes the bypass decision: bypass when
	// missCounter*BypassRatio < victimCounter.
	BypassRatio uint32
	// ColdMax is the absolute frequency ceiling for bypassing
	// spatially-local data: only macro-blocks still below it are
	// candidates. It keeps the relative comparison from bypassing
	// moderately reused data just because the would-be victim is very
	// hot. Spatial candidates are cheap to bypass (they are fetched
	// block-sized into the buffer), so the ceiling is generous.
	ColdMax uint32
	// ColdMaxSparse is the (much lower) ceiling for non-spatial
	// candidates. A wrongly bypassed non-spatial block is re-fetched on
	// every later touch, so only macro-blocks that look one-touch cold
	// qualify.
	ColdMaxSparse uint32
	// BufferWords is the bypass-buffer capacity in 8-byte double words.
	BufferWords int
	// FillSpanWords is how many double words a spatial bypassed fetch
	// installs in the buffer (the "larger fetch size"); at most a full
	// L1 block's worth is meaningful.
	FillSpanWords int
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Entries:          4096,
		MacroBlock:       1024,
		BlockBytes:       32,
		CounterMax:       1023,
		AgePeriod:        1 << 17,
		SLDTEntries:      64,
		SpatialThreshold: 2,
		BypassRatio:      4,
		ColdMax:          64,
		ColdMaxSparse:    8,
		BufferWords:      64,
		FillSpanWords:    4,
	}
}

func (c Config) validate() error {
	switch {
	case c.Entries <= 0 || c.Entries&(c.Entries-1) != 0:
		return fmt.Errorf("mat: entries %d not a positive power of two", c.Entries)
	case c.MacroBlock <= 0 || c.MacroBlock&(c.MacroBlock-1) != 0:
		return fmt.Errorf("mat: macro-block %d not a positive power of two", c.MacroBlock)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("mat: block bytes %d not a positive power of two", c.BlockBytes)
	case c.SLDTEntries <= 0 || c.SLDTEntries&(c.SLDTEntries-1) != 0:
		return fmt.Errorf("mat: SLDT entries %d not a positive power of two", c.SLDTEntries)
	case c.BufferWords <= 0:
		return fmt.Errorf("mat: buffer words %d", c.BufferWords)
	case c.CounterMax == 0:
		return fmt.Errorf("mat: counter max 0")
	}
	return nil
}

type matEntry struct {
	tag       uint64
	lastBlock uint64
	counter   uint32
}

// Stats counts mechanism activity.
type Stats struct {
	Touches     uint64
	Agings      uint64
	TagReplaces uint64
	SpatialYes  uint64
	SpatialNo   uint64
}

// Table is the Memory Access Table: a direct-mapped array of saturating
// access-frequency counters, one per resident macro-block.
type Table struct {
	cfg       Config
	macroBits uint
	blockBits uint
	mask      uint64
	entries   []matEntry
	sinceAge  uint64
	// Stats accumulates counters.
	Stats Stats
}

// NewTable builds a MAT; it panics on invalid configuration.
func NewTable(cfg Config) *Table {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Table{
		cfg:       cfg,
		macroBits: uint(bits.TrailingZeros(uint(cfg.MacroBlock))),
		blockBits: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		mask:      uint64(cfg.Entries - 1),
		entries:   make([]matEntry, cfg.Entries),
	}
}

// Reset clears every entry, the aging clock and the counters without
// reallocating the entries: the state NewTable(cfg) builds.
func (t *Table) Reset() {
	clear(t.entries)
	t.sinceAge = 0
	t.Stats = Stats{}
}

func (t *Table) macro(a mem.Addr) uint64 { return uint64(a) >> t.macroBits }

// MacroShift returns log2 of the macro-block size: addr >> MacroShift() is
// the macro-block number the table is indexed by.
func (t *Table) MacroShift() uint { return t.macroBits }

// Touch records one access to the macro-block containing a, replacing a
// conflicting resident entry if necessary (limited table capacity is part of
// the mechanism's imprecision).
func (t *Table) Touch(a mem.Addr) {
	t.Stats.Touches++
	m := t.macro(a)
	b := uint64(a) >> t.blockBits
	e := &t.entries[m&t.mask]
	if e.tag != m {
		e.tag = m
		e.counter = 0
		e.lastBlock = b + 1 // force the first count
		t.Stats.TagReplaces++
	}
	if e.lastBlock != b && e.counter < t.cfg.CounterMax {
		e.counter++
	}
	e.lastBlock = b
	if t.cfg.AgePeriod > 0 {
		t.sinceAge++
		if t.sinceAge >= t.cfg.AgePeriod {
			t.age()
		}
	}
}

func (t *Table) age() {
	t.sinceAge = 0
	t.Stats.Agings++
	for i := range t.entries {
		t.entries[i].counter >>= 1
	}
}

// Counter returns the access-frequency counter for the macro-block
// containing a, or zero if the macro-block is not resident in the table.
func (t *Table) Counter(a mem.Addr) uint32 {
	m := t.macro(a)
	e := &t.entries[m&t.mask]
	if e.tag != m {
		return 0
	}
	return e.counter
}

// ShouldBypass implements the frequency-based caching decision: the
// incoming block is bypassed when its macro-block is still cold in absolute
// terms and accessed sufficiently less frequently than the macro-block of
// the line it would displace. The cold ceiling depends on the SLDT's
// spatial prediction: spatial data is served block-sized from the bypass
// buffer (cheap even when the prediction of coldness is wrong), while
// non-spatial data pays a full re-fetch per touch, so only near-one-touch
// macro-blocks qualify. Without a valid victim (cold set) the block is
// always cached.
func (t *Table) ShouldBypass(missAddr, victimAddr mem.Addr, victimValid, spatial bool) bool {
	if !victimValid {
		return false
	}
	miss := t.Counter(missAddr)
	ceiling := t.cfg.ColdMaxSparse
	if spatial {
		ceiling = t.cfg.ColdMax
	}
	if ceiling > 0 && miss >= ceiling {
		return false
	}
	return miss*t.cfg.BypassRatio < t.Counter(victimAddr)
}
