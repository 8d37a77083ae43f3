package trace

import "selcache/internal/mem"

// This file is the batch layer over the packed replay form. A BlockCursor
// hands out consecutive windows of a trace's packed words as
// mem.EventBlocks: no decode and no copy, one slice header per block.
// ReplayBatched hands each window to the consumer's EmitBlock — one dynamic
// dispatch per 4096 events instead of one per event.

// DefaultBlockEvents is the block capacity Replay uses when the caller does
// not supply a Block. At 4096 events the per-block bookkeeping amortizes to
// nothing, and a window (32 KB of words) stays inside the L2 of any host
// worth benchmarking on.
const DefaultBlockEvents = 4096

// Block is the batch a cursor fills (see mem.EventBlock).
type Block = mem.EventBlock

// NewBlock returns a Block with capacity for events words per fill.
// Capacities below 1 fall back to DefaultBlockEvents.
func NewBlock(events int) *Block {
	if events < 1 {
		events = DefaultBlockEvents
	}
	return mem.NewEventBlock(events)
}

// BlockCursor walks a trace's packed words in block-sized windows. Obtain
// one with Trace.BlockCursor; the zero value is an empty stream.
type BlockCursor struct {
	words []uint64
}

// BlockCursor returns a cursor over the trace's packed words. Every
// validated stream packs, so ok is always true; it stays in the signature
// for callers written when some streams did not.
func (t *Trace) BlockCursor() (c *BlockCursor, ok bool) {
	return &BlockCursor{words: t.packed}, true
}

// Next points b at the next window of at most b.Cap() words and reports
// whether there was one. The window aliases the trace's packed words,
// which are shared by every replay of the stream: b's consumer must not
// write them.
func (c *BlockCursor) Next(b *Block) bool {
	n := min(b.Cap(), len(c.words))
	b.SetWindow(c.words[:n])
	c.words = c.words[n:]
	return n > 0
}

// ReplayBatched drives be through the block engine, reusing blk (one is
// allocated when nil). Event order and per-call arguments are identical to
// ReplayScalar's.
func (t *Trace) ReplayBatched(be mem.BatchEmitter, blk *Block) {
	if blk == nil {
		blk = NewBlock(DefaultBlockEvents)
	}
	cur, _ := t.BlockCursor()
	for cur.Next(blk) {
		be.EmitBlock(blk)
	}
}
