package mem

import "testing"

func TestEventBlockCapacityFloor(t *testing.T) {
	for _, n := range []int{-5, 0, 1} {
		if got := NewEventBlock(n).Cap(); got != 1 {
			t.Errorf("NewEventBlock(%d).Cap() = %d, want 1", n, got)
		}
	}
	b := NewEventBlock(16)
	if b.Cap() != 16 || b.Len() != 0 || len(b.Words()) != 0 {
		t.Fatalf("new block len/cap = %d/%d, want 0/16", b.Len(), b.Cap())
	}
}

func TestEventBlockSetWindowBounds(t *testing.T) {
	b := NewEventBlock(4)
	words := make([]uint64, 5)
	for _, n := range []int{0, 1, 4} {
		b.SetWindow(words[:n])
		if b.Len() != n || len(b.Words()) != n {
			t.Fatalf("SetWindow of %d words; Len() = %d", n, b.Len())
		}
	}
	b.SetWindow(words[:4])
	if b.Len() != 4 || &b.Words()[0] != &words[0] {
		t.Fatal("SetWindow copied its words or changed their count")
	}
	if cap(b.Words()) != 4 {
		t.Fatalf("window capacity %d reaches past its length 4", cap(b.Words()))
	}
	if b.Cap() != 4 {
		t.Fatalf("SetWindow changed Cap() to %d", b.Cap())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetWindow of 5 words into a 4-word block did not panic")
			}
		}()
		b.SetWindow(words)
	}()
}

func TestEventBlockEmitReference(t *testing.T) {
	b := NewEventBlock(8)
	buf := make([]uint64, 8)
	// marker-on, read, folded compute run (3 × Compute(5)), write,
	// marker-off; the remaining capacity stays outside Len.
	buf[0] = MarkerWord(true)
	buf[1] = AccessWord(0x1000, AccessTag(8, false))
	buf[2] = ComputeWord(5, 3)
	buf[3] = AccessWord(0x2000, AccessTag(4, true))
	buf[4] = MarkerWord(false)
	// Stale garbage beyond Len must not be replayed.
	buf[5] = AccessWord(0xdead, AccessTag(1, true))
	b.SetWindow(buf[:5])

	var c CountingEmitter
	b.Emit(&c)
	if c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("reads=%d writes=%d, want 1/1", c.Reads, c.Writes)
	}
	if c.Markers != 2 || c.OnMarkers != 1 {
		t.Fatalf("markers=%d on=%d, want 2/1", c.Markers, c.OnMarkers)
	}
	// 2 access instructions + 2 marker instructions + 3 runs of Compute(5).
	if want := uint64(2 + 2 + 3*5); c.Instructions != want {
		t.Fatalf("instructions=%d, want %d", c.Instructions, want)
	}
}

// TestWordFieldsRoundTrip checks that every packed field survives at its
// extremes and that no field bleeds into another.
func TestWordFieldsRoundTrip(t *testing.T) {
	for _, a := range []Addr{0, 1, 0x1234_5678, MaxWordAddr} {
		for _, size := range []uint8{1, 2, 4, 8} {
			for _, write := range []bool{false, true} {
				w := AccessWord(a, AccessTag(size, write))
				if WordKind(w) != EvAccess || WordAddr(w) != a || WordSize(w) != size || WordWrite(w) != write {
					t.Fatalf("access (%#x, %d, %v) packs to %#x decodes to kind %d addr %#x size %d write %v",
						a, size, write, w, WordKind(w), WordAddr(w), WordSize(w), WordWrite(w))
				}
			}
		}
	}
	for _, n := range []uint64{1, 7, MaxWordN} {
		for _, count := range []uint64{1, 3, MaxWordCount} {
			w := ComputeWord(n, count)
			gn, gc := WordCompute(w)
			if WordKind(w) != EvCompute || uint64(gn) != n || gc != count {
				t.Fatalf("ComputeWord(%d, %d) decodes to kind %d, %d x %d", n, count, WordKind(w), gn, gc)
			}
		}
	}
	if WordKind(MarkerWord(true)) != EvMarkerOn || WordKind(MarkerWord(false)) != EvMarkerOff {
		t.Fatal("marker words carry the wrong kind")
	}
}
