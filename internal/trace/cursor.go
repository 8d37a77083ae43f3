package trace

import (
	"fmt"

	"selcache/internal/mem"
)

// Kind labels one replayed emitter call.
type Kind uint8

const (
	// KindCompute is a Compute(n) call.
	KindCompute Kind = iota
	// KindMarker is a Marker(on) call.
	KindMarker
	// KindAccess is an Access(addr, size, write) call.
	KindAccess
	// KindEnd marks the end of the stream (only produced by
	// FirstDivergence for the shorter of two traces).
	KindEnd
)

// Event is one emitter call in replay order. Compute runs are expanded, so
// the sequence of Events matches the calls Replay issues one to one.
type Event struct {
	Kind Kind

	// Addr, Size and Write are set for KindAccess.
	Addr  mem.Addr
	Size  uint8
	Write bool

	// N is set for KindCompute.
	N int

	// On is set for KindMarker.
	On bool
}

// String renders the event the way the golden-trace diff prints it.
func (e Event) String() string {
	switch e.Kind {
	case KindCompute:
		return fmt.Sprintf("Compute(%d)", e.N)
	case KindMarker:
		if e.On {
			return "Marker(ON)"
		}
		return "Marker(OFF)"
	case KindAccess:
		rw := "load"
		if e.Write {
			rw = "store"
		}
		return fmt.Sprintf("%s %d bytes @ 0x%x", rw, e.Size, e.Addr)
	case KindEnd:
		return "<end of stream>"
	default:
		return fmt.Sprintf("Event(kind=%d)", e.Kind)
	}
}

// Cursor iterates a trace's events one emitter call at a time. Obtain one
// with Trace.Cursor; the zero value is empty.
type Cursor struct {
	words []uint64

	// Remaining repeat count of the current compute run.
	runN    int
	runLeft uint64
}

// Cursor returns an iterator positioned before the first event. It walks
// the packed words.
func (t *Trace) Cursor() *Cursor {
	return &Cursor{words: t.packed}
}

// Next returns the next emitter call. ok is false at the end of the
// stream. The words were validated at construction, so iteration cannot
// fail.
func (c *Cursor) Next() (ev Event, ok bool) {
	if c.runLeft > 0 {
		c.runLeft--
		return Event{Kind: KindCompute, N: c.runN}, true
	}
	if len(c.words) == 0 {
		return Event{Kind: KindEnd}, false
	}
	w := c.words[0]
	c.words = c.words[1:]
	switch mem.WordKind(w) {
	case mem.EvAccess:
		return Event{Kind: KindAccess, Addr: mem.WordAddr(w), Size: mem.WordSize(w), Write: mem.WordWrite(w)}, true
	case mem.EvCompute:
		n, count := mem.WordCompute(w)
		c.runN, c.runLeft = n, count-1
		return Event{Kind: KindCompute, N: n}, true
	default: // mem.EvMarkerOn, mem.EvMarkerOff
		return Event{Kind: KindMarker, On: mem.WordKind(w) == mem.EvMarkerOn}, true
	}
}

// FirstDivergence compares two traces call by call. It returns the index
// of the first differing emitter call plus both sides' events at that
// index; diverged is false when the streams are identical. When one stream
// is a prefix of the other, the shorter side's event is KindEnd.
func FirstDivergence(a, b *Trace) (idx uint64, ea, eb Event, diverged bool) {
	ca, cb := a.Cursor(), b.Cursor()
	for {
		ea, okA := ca.Next()
		eb, okB := cb.Next()
		if !okA && !okB {
			return idx, ea, eb, false
		}
		if ea != eb {
			return idx, ea, eb, true
		}
		idx++
	}
}
