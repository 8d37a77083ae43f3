package sim

import "selcache/internal/mem"

// This file is the machine's half of the batched replay engine (the other
// half is internal/trace's block cursor). Machine implements
// mem.BatchEmitter: trace.Replay detects the interface and hands it whole
// windows of packed event words instead of one dynamic dispatch per event.
//
// EmitBlock decodes each word inline — a shift and a mask recover every
// field — and runs the exact bodies the scalar entry points run: access1
// per access, a folded compute run, Marker. Statistics and cycle
// accounting are bit-identical to scalar replay by construction.

// EmitBlock implements mem.BatchEmitter: equivalent to b.Emit(m), i.e. the
// block's events in order against the scalar entry points. It only reads
// the block's words.
func (m *Machine) EmitBlock(b *mem.EventBlock) {
	for _, w := range b.Words() {
		switch mem.WordKind(w) {
		case mem.EvAccess:
			a := mem.WordAddr(w)
			m.access1(a, mem.WordWrite(w), uint64(a)>>m.l1Shift, uint64(a)>>m.pageShift)
		case mem.EvCompute:
			m.computeRun(mem.WordCompute(w))
		case mem.EvMarkerOn:
			m.Marker(true)
		case mem.EvMarkerOff:
			m.Marker(false)
		}
	}
}

// computeRun is equivalent to count consecutive Compute(n) calls. The cycle
// accumulator is floating point, so the increment is applied count times —
// folding the run into one multiply could round differently from the
// scalar path.
func (m *Machine) computeRun(n int, count uint64) {
	m.instructions += uint64(n) * count
	d := float64(n) * m.invIssue
	for i := uint64(0); i < count; i++ {
		m.cycles += d
	}
}
