// Package mem provides the simulated virtual address space that every
// workload in this repository executes against.
//
// Workloads do not touch real memory: they allocate arrays and scalars from
// a Space and *emit* the loads and stores they would perform to an Emitter
// (usually the cache-hierarchy simulator in internal/sim). Arrays carry an
// explicit dimension order so that the compiler's data-layout transformations
// (internal/opt) can change the memory layout of an array without touching
// the code that indexes it, exactly as a layout-transforming compiler would.
package mem

import (
	"fmt"
	"math/bits"
)

// Addr is a simulated virtual address.
type Addr uint64

// Emitter consumes the dynamic event stream of a simulated program run:
// memory accesses, bursts of non-memory instructions, and the special
// activate/deactivate instructions that gate the hardware locality
// optimization at run time.
//
// The cache simulator implements Emitter; tests frequently implement it with
// small recording sinks.
type Emitter interface {
	// Access simulates one load (write=false) or store (write=true) of
	// size bytes at addr. Size is a power of two no larger than 8.
	Access(addr Addr, size uint8, write bool)

	// Compute accounts for n non-memory instructions (ALU, branches,
	// address arithmetic). It advances simulated time but touches no
	// cache state.
	Compute(n int)

	// Marker simulates an activate (on=true) or deactivate (on=false)
	// instruction for the hardware optimization mechanism. It costs one
	// instruction slot.
	Marker(on bool)
}

// Packed event words. One uint64 holds one event (a folded Compute run
// counts as one event). The low byte is a tag: the kind in bits 0-1, and for
// an access the write flag and log2(size) above it. The payload sits above
// the tag:
//
//	Access:  bits 8..63 address               (addr <= MaxWordAddr)
//	Compute: bits 8..31 n, bits 32..63 count  (n <= MaxWordN, count <= MaxWordCount)
//	Marker:  tag only
//
// The tag byte is also internal/trace's wire tag, so the varint codec and
// the packed form share one encoding of kinds, sizes and the write flag.
const (
	EvCompute   uint8 = 0
	EvMarkerOn  uint8 = 1
	EvMarkerOff uint8 = 2
	EvAccess    uint8 = 3

	// tagWrite is an access tag's write flag; tagSizeMask holds log2 of
	// its size (1, 2, 4 or 8 bytes) at tagSizeShift.
	tagWrite     = 0x04
	tagSizeMask  = 0x18
	tagSizeShift = 3

	// MaxWordAddr, MaxWordN and MaxWordCount are the largest values a
	// word holds.
	MaxWordAddr  = 1<<56 - 1
	MaxWordN     = 1<<24 - 1
	MaxWordCount = 1<<32 - 1

	wordPayloadShift = 8
	wordCountShift   = 32
)

// AccessTag returns the tag byte of Access(_, size, write). size must be 1,
// 2, 4 or 8.
func AccessTag(size uint8, write bool) uint8 {
	tag := uint8(bits.TrailingZeros8(size))<<tagSizeShift | EvAccess
	if write {
		tag |= tagWrite
	}
	return tag
}

// AccessWord packs an access to addr with tag byte tag (see AccessTag).
// addr must not exceed MaxWordAddr.
func AccessWord(addr Addr, tag uint8) uint64 {
	return uint64(addr)<<wordPayloadShift | uint64(tag)
}

// ComputeWord packs a run of count Compute(n) calls. n must not exceed
// MaxWordN nor count MaxWordCount.
func ComputeWord(n, count uint64) uint64 {
	return n<<wordPayloadShift | count<<wordCountShift | uint64(EvCompute)
}

// MarkerWord packs Marker(on).
func MarkerWord(on bool) uint64 {
	if on {
		return uint64(EvMarkerOn)
	}
	return uint64(EvMarkerOff)
}

// WordKind returns a word's Ev* kind.
func WordKind(w uint64) uint8 { return uint8(w) & 0x03 }

// WordAddr returns an access word's address.
func WordAddr(w uint64) Addr { return Addr(w >> wordPayloadShift) }

// WordSize returns an access word's size in bytes.
func WordSize(w uint64) uint8 { return 1 << ((uint8(w) & tagSizeMask) >> tagSizeShift) }

// WordWrite reports whether an access word is a store.
func WordWrite(w uint64) bool { return w&tagWrite != 0 }

// WordCompute returns a compute word's instructions per call and run
// length.
func WordCompute(w uint64) (n int, count uint64) {
	return int(w >> wordPayloadShift & MaxWordN), w >> wordCountShift
}

// EventBlock is a batch of at most Cap() packed event words (see the
// layout above EvCompute). A producer points the block at words it already
// holds with SetWindow — internal/trace hands out windows of a recorded
// stream's own words that way, with no copy.
//
// Words() may alias storage shared with other goroutines (trace caches
// share one packed stream across sweep workers and selcached requests), so
// no consumer may write to it.
type EventBlock struct {
	words []uint64 // the valid events
	cap   int
}

// NewEventBlock returns a block with capacity for events words per fill.
// Capacities below 1 fall back to 1.
func NewEventBlock(events int) *EventBlock {
	return &EventBlock{cap: max(events, 1)}
}

// Len reports how many events the block holds.
func (b *EventBlock) Len() int { return len(b.words) }

// Cap reports the block's event capacity.
func (b *EventBlock) Cap() int { return b.cap }

// Words returns the block's events. The slice is read-only.
func (b *EventBlock) Words() []uint64 { return b.words }

// SetWindow makes words the block's events without copying them; len(words)
// must not exceed Cap. The block only reads them.
func (b *EventBlock) SetWindow(words []uint64) {
	if len(words) > b.cap {
		panic(fmt.Sprintf("mem: SetWindow of %d words outside block capacity %d", len(words), b.cap))
	}
	b.words = words[:len(words):len(words)]
}

// Emit replays the block's events against a scalar emitter, in order. It is
// the one scalar decoder of packed words, and the reference consumer
// BatchEmitter implementations are validated against.
func (b *EventBlock) Emit(em Emitter) {
	for _, w := range b.words {
		switch WordKind(w) {
		case EvAccess:
			em.Access(WordAddr(w), WordSize(w), WordWrite(w))
		case EvCompute:
			n, count := WordCompute(w)
			for c := uint64(0); c < count; c++ {
				em.Compute(n)
			}
		case EvMarkerOn:
			em.Marker(true)
		case EvMarkerOff:
			em.Marker(false)
		}
	}
}

// BatchEmitter is an Emitter that additionally accepts whole blocks of
// packed events. EmitBlock(b) is semantically identical to b.Emit(em) — the
// same events in the same order — and implementations must produce
// bit-identical state and statistics either way (float accumulation order
// included).
//
// The block form exists purely for speed: a consumer that implements
// BatchEmitter receives one call per block instead of one dynamic dispatch
// per event, and decodes the words inline. trace.Trace.Replay detects the
// interface and routes replays through it.
type BatchEmitter interface {
	Emitter

	// EmitBlock consumes the block's events in order. The block is owned
	// by the caller and its words may be shared with other readers:
	// implementations must neither write them nor retain them past the
	// call.
	EmitBlock(b *EventBlock)
}

// CountingEmitter is a trivial Emitter that tallies events. It is useful in
// tests and for cheap dry runs (for example, instruction counting without
// cache simulation).
type CountingEmitter struct {
	Reads, Writes uint64
	Instructions  uint64
	Markers       uint64
	OnMarkers     uint64
}

// Access implements Emitter.
func (c *CountingEmitter) Access(_ Addr, _ uint8, write bool) {
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
	c.Instructions++
}

// Compute implements Emitter.
func (c *CountingEmitter) Compute(n int) { c.Instructions += uint64(n) }

// Marker implements Emitter.
func (c *CountingEmitter) Marker(on bool) {
	c.Markers++
	if on {
		c.OnMarkers++
	}
	c.Instructions++
}

// Accesses returns the total number of memory accesses recorded.
func (c *CountingEmitter) Accesses() uint64 { return c.Reads + c.Writes }

// Space is an allocator for the simulated virtual address space.
//
// The zero value is not ready for use; call NewSpace. Allocations never
// overlap and never straddle address zero, so a zero Addr can be used as a
// sentinel. Between allocations the allocator inserts deterministic
// pseudo-random page-granular gaps, mimicking the scattered layout a real
// process image has (separate mmap regions, heap fragmentation). The
// scatter matters for fidelity: hardware structures indexed by physical
// address bits — cache sets, the MAT's direct-mapped macro-block entries,
// TLB sets — alias between regions in real runs, and a dense bump layout
// would hide that.
type Space struct {
	next Addr
	seq  uint64
}

// spaceBase is the first allocatable address. Keeping it well above zero
// makes accidental zero-address accesses detectable and mirrors the layout
// of a real process image.
const spaceBase Addr = 0x0001_0000

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{next: spaceBase}
}

// Alloc reserves size bytes aligned to align (a power of two) and returns the
// base address. Alloc panics on a non-positive size or a non-power-of-two
// alignment, since both indicate a workload construction bug.
func (s *Space) Alloc(size int, align int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("mem: Alloc size %d", size))
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: Alloc align %d not a power of two", align))
	}
	// Deterministic scatter: 0–96 pages of slack per allocation.
	s.seq = s.seq*6364136223846793005 + 1442695040888963407
	gap := Addr((s.seq >> 33) % 97 * 4096)
	s.next += gap
	a := Addr(align)
	s.next = (s.next + a - 1) &^ (a - 1)
	base := s.next
	s.next += Addr(size)
	return base
}

// Used reports the number of bytes allocated so far.
func (s *Space) Used() uint64 { return uint64(s.next - spaceBase) }

// Scalar is a named scalar variable with a fixed address. Scalars are always
// analyzable references in the compiler's classification.
type Scalar struct {
	Name string
	Addr Addr
	Size uint8
}

// NewScalar allocates a scalar of size bytes in s.
func NewScalar(s *Space, name string, size uint8) *Scalar {
	return &Scalar{Name: name, Addr: s.Alloc(int(size), int(size)), Size: size}
}
