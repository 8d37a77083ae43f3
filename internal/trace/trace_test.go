package trace

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"selcache/internal/mem"
)

// call is one recorded emitter call, for comparing replayed sequences.
type call struct {
	kind  Kind
	addr  mem.Addr
	size  uint8
	write bool
	n     int
	on    bool
}

// callLog collects emitter calls verbatim.
type callLog struct{ calls []call }

func (l *callLog) Access(addr mem.Addr, size uint8, write bool) {
	l.calls = append(l.calls, call{kind: KindAccess, addr: addr, size: size, write: write})
}
func (l *callLog) Compute(n int)  { l.calls = append(l.calls, call{kind: KindCompute, n: n}) }
func (l *callLog) Marker(on bool) { l.calls = append(l.calls, call{kind: KindMarker, on: on}) }
func (l *callLog) replayOf(t *Trace) []call {
	t.Replay(l)
	return l.calls
}

// emit drives an emitter with a representative mixed sequence: forward and
// backward address deltas, every access size, compute runs and markers.
func emit(em mem.Emitter) {
	em.Marker(true)
	em.Access(0x1000, 8, false)
	em.Access(0x1008, 8, true)
	em.Compute(3)
	em.Compute(3)
	em.Compute(3)
	em.Access(0x0800, 1, false) // negative delta
	em.Compute(7)
	em.Access(0x0802, 2, true)
	em.Access(0x0804, 4, false)
	em.Marker(false)
	em.Access(1<<40, 8, false) // large delta
	em.Compute(1)
}

// handEncode encodes calls the way the format allows but the Recorder
// might refuse: one wire event per call, no folding and no bounds checks.
func handEncode(calls []call) []byte {
	var meta Meta
	var payload []byte
	var prev mem.Addr
	for _, c := range calls {
		meta.Events++
		switch c.kind {
		case KindAccess:
			payload = append(payload, mem.AccessTag(c.size, c.write))
			payload = binary.AppendVarint(payload, int64(c.addr)-int64(prev))
			prev = c.addr
			meta.Accesses++
			if c.write {
				meta.Writes++
			} else {
				meta.Reads++
			}
		case KindCompute:
			payload = append(payload, mem.EvCompute)
			payload = binary.AppendUvarint(payload, uint64(c.n))
			payload = binary.AppendUvarint(payload, 1)
			meta.ComputeInstr += uint64(c.n)
			meta.ComputeCalls++
		case KindMarker:
			payload = append(payload, byte(mem.MarkerWord(c.on)))
			meta.Markers++
			if c.on {
				meta.OnMarkers++
			}
		}
	}
	return encodeRaw(meta, payload)
}

// encodeRaw frames payload with a header carrying meta, without validating
// either.
func encodeRaw(meta Meta, payload []byte) []byte {
	data := []byte(magic)
	for _, v := range []uint64{meta.Events, meta.Accesses, meta.Reads, meta.ComputeInstr,
		meta.ComputeCalls, meta.Markers, meta.OnMarkers, uint64(len(payload))} {
		data = binary.AppendUvarint(data, v)
	}
	return append(data, payload...)
}

func recordSample(t *testing.T) *Trace {
	t.Helper()
	r := NewRecorder()
	emit(r)
	return r.Trace()
}

func TestRoundTrip(t *testing.T) {
	tr := recordSample(t)

	var want, got callLog
	emit(&want)
	if replayed := got.replayOf(tr); len(replayed) != len(want.calls) {
		t.Fatalf("replay produced %d calls, recorded %d", len(replayed), len(want.calls))
	}
	for i := range want.calls {
		if got.calls[i] != want.calls[i] {
			t.Fatalf("call %d: replayed %+v, recorded %+v", i, got.calls[i], want.calls[i])
		}
	}

	enc := tr.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Meta != tr.Meta {
		t.Fatalf("Meta changed across encode/decode: %+v vs %+v", dec.Meta, tr.Meta)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encoding a decoded trace changed the bytes")
	}
	if tr.EncodedSize() != len(enc) {
		t.Fatalf("EncodedSize %d, actual %d", tr.EncodedSize(), len(enc))
	}
}

func TestMeta(t *testing.T) {
	tr := recordSample(t)
	m := tr.Meta
	want := Meta{
		Events:   13,
		Accesses: 6, Reads: 4, Writes: 2,
		ComputeInstr: 17, ComputeCalls: 5,
		Markers: 2, OnMarkers: 1,
	}
	if m != want {
		t.Fatalf("Meta = %+v, want %+v", m, want)
	}
	if got := m.Instructions(); got != 6+2+17 {
		t.Fatalf("Instructions = %d, want %d", got, 6+2+17)
	}
}

func TestComputeRunFolding(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 1000; i++ {
		r.Compute(4)
	}
	tr := r.Trace()
	// One word, and one tag byte + uvarint(4) + uvarint(1000) on the wire:
	// the run must fold, and its count's growth to a two-byte varint must
	// be counted.
	if len(tr.packed) != 1 || tr.payloadLen != 4 || tr.EncodedSize() != len(tr.Encode()) {
		t.Fatalf("1000-call run recorded as %d words, %d payload bytes; want 1 word, 4 bytes", len(tr.packed), tr.payloadLen)
	}
	var l callLog
	if calls := l.replayOf(tr); len(calls) != 1000 {
		t.Fatalf("replay expanded to %d calls, want 1000 individual Compute calls", len(calls))
	}
}

func TestComputeZeroDropped(t *testing.T) {
	r := NewRecorder()
	r.Compute(0)
	r.Compute(-3)
	tr := r.Trace()
	if tr.Meta.Events != 0 || len(tr.packed) != 0 || tr.payloadLen != 0 {
		t.Fatalf("non-positive Compute calls recorded: %+v", tr.Meta)
	}
}

func TestRecorderKeepsRecordingAfterTrace(t *testing.T) {
	r := NewRecorder()
	r.Compute(2)
	t1 := r.Trace()
	r.Compute(2)
	t2 := r.Trace()
	if t1.Meta.Events != 1 || t2.Meta.Events != 2 {
		t.Fatalf("snapshots hold %d and %d events, want 1 and 2", t1.Meta.Events, t2.Meta.Events)
	}
	// The second call extends the run word the first snapshot copied;
	// the snapshot must keep its own.
	var l1, l2 callLog
	if calls := l1.replayOf(t1); len(calls) != 1 {
		t.Fatalf("first snapshot replays %d calls, want 1", len(calls))
	}
	if calls := l2.replayOf(t2); len(calls) != 2 {
		t.Fatalf("second snapshot replays %d calls, want 2", len(calls))
	}
}

// TestRecorderChunkBoundaries records a long mixed stream, long enough to
// fill chunks of every size the recorder uses, with compute runs ending on
// both sides of chunk edges and a Trace call midway. Each snapshot must
// match packing its own encoding: the same words, no varint bytes kept,
// and an exact EncodedSize. The midway snapshot must not change as the
// recorder goes on, and must not change the final stream either.
func TestRecorderChunkBoundaries(t *testing.T) {
	var midEnc []byte // the midway snapshot's encoding when it was taken
	record := func(midAt uint64) (mid, final *Trace) {
		r := NewRecorder()
		x := uint64(1)
		for r.words+len(r.cur) < 3*maxChunk {
			x = x*6364136223846793005 + 1442695040888963407
			switch op := x >> 60; {
			case op < 8:
				r.Access(mem.Addr(x>>20&0xFFFFFF8), 1<<(x>>16&3), x&(1<<10) != 0)
			case op < 14:
				for k := x >> 30 & 7; k > 0; k-- {
					r.Compute(int(x>>40&1) + 1)
				}
			default:
				r.Marker(x&1 == 0)
			}
			if mid == nil && midAt > 0 && r.meta.Events >= midAt {
				mid = r.Trace()
				midEnc = mid.Encode()
			}
		}
		return mid, r.Trace()
	}
	mid, final := record(50_000)
	if final.Meta.Events < 300_000 {
		t.Fatalf("stream holds %d events, want over 300k", final.Meta.Events)
	}
	// Word offsets at which one chunk ends and the next begins.
	runsAtEdges := 0
	for size, edge := firstChunk, firstChunk; edge < len(final.packed); size, edge = min(2*size, maxChunk), edge+min(2*size, maxChunk) {
		for _, w := range final.packed[edge-1 : edge+1] {
			if _, count := mem.WordCompute(w); mem.WordKind(w) == mem.EvCompute && count > 1 {
				runsAtEdges++
			}
		}
	}
	if runsAtEdges == 0 {
		t.Fatal("no compute run ended next to a chunk edge")
	}
	for name, tr := range map[string]*Trace{"midway": mid, "final": final} {
		enc := tr.Encode()
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(dec.packed, tr.packed) {
			t.Fatalf("%s: recorded words differ from packing their own encoding", name)
		}
		if tr.EncodedSize() != len(enc) {
			t.Fatalf("%s: EncodedSize %d, encoding holds %d bytes", name, tr.EncodedSize(), len(enc))
		}
	}
	if !bytes.Equal(mid.Encode(), midEnc) {
		t.Fatal("midway snapshot changed as recording went on")
	}
	if _, alone := record(0); !bytes.Equal(final.Encode(), alone.Encode()) {
		t.Fatal("a midway Trace call changed the final stream")
	}
}

// TestRecorderCapsComputeRuns checks that the recorder ends a run at
// mem.MaxWordCount calls, so a run is always one word and one wire event.
// Making 2^32 calls takes too long for a unit test, so the run word and
// the counters are set two calls short of the cap.
func TestRecorderCapsComputeRuns(t *testing.T) {
	r := NewRecorder()
	r.Compute(3)
	const preset = mem.MaxWordCount - 2
	r.cur[0] = mem.ComputeWord(3, preset+1)
	r.wireLen += uvarintLen(preset+1) - uvarintLen(1)
	r.meta.ComputeCalls += preset
	r.meta.ComputeInstr += 3 * preset
	r.meta.Events += preset
	r.Compute(3) // the run's last call
	r.Compute(3) // the next run's first
	tr := r.Trace()
	want := []uint64{mem.ComputeWord(3, mem.MaxWordCount), mem.ComputeWord(3, 1)}
	if !slices.Equal(tr.packed, want) {
		t.Fatalf("recorded words %#x, want %#x", tr.packed, want)
	}
	enc := tr.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec.packed, want) || tr.EncodedSize() != len(enc) {
		t.Fatalf("capped run decoded to %#x, EncodedSize %d of %d", dec.packed, tr.EncodedSize(), len(enc))
	}
}

func TestAccessSizePanics(t *testing.T) {
	for _, size := range []uint8{0, 3, 5, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Access size %d did not panic", size)
				}
			}()
			NewRecorder().Access(0, size, false)
		}()
	}
}

func TestDecodeErrors(t *testing.T) {
	good := recordSample(t).Encode()

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "reading magic"},
		{"bad magic", []byte("nottrace" + "xxxx"), "bad magic"},
		{"future version", append([]byte("sctrace\x02"), good[8:]...), "unsupported format version"},
		{"truncated header", good[:9], "reading header"},
		{"truncated payload", good[:len(good)-1], "payload"},
		{"trailing bytes", append(append([]byte{}, good...), 0), "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if err == nil {
				t.Fatal("Decode accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Flip a payload byte: either the structure or the counter cross-check
	// must catch it (a flipped delta keeps structure but not counters only
	// when it stays a valid varint of the same length — the sample's
	// payload starts with a marker tag, so corrupt its reserved bits).
	bad := append([]byte{}, good...)
	bad[len(bad)-recordSample(t).payloadLen] |= 0xF0
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode accepted a payload with reserved tag bits set")
	}
}

func TestDecodeHeaderMismatch(t *testing.T) {
	tr := recordSample(t)
	enc := tr.Encode()
	meta := tr.Meta
	meta.Reads++ // still <= Accesses, so only the payload walk can object
	_, err := Decode(encodeRaw(meta, enc[len(enc)-tr.payloadLen:]))
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("tampered header not rejected: %v", err)
	}
}

func TestWriteToReadFrom(t *testing.T) {
	tr := recordSample(t)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) || n != int64(tr.EncodedSize()) {
		t.Fatalf("WriteTo wrote %d bytes, buffer has %d, EncodedSize %d", n, buf.Len(), tr.EncodedSize())
	}
	dec, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if dec.Meta != tr.Meta {
		t.Fatalf("Meta mismatch: %+v vs %+v", dec.Meta, tr.Meta)
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := recordSample(t)
	path := t.TempDir() + "/sample.sctrace"
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	dec, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(dec.Encode(), tr.Encode()) {
		t.Fatal("file round trip changed the encoding")
	}
}

func TestCursorMatchesReplay(t *testing.T) {
	tr := recordSample(t)
	var l callLog
	replayed := l.replayOf(tr)
	c := tr.Cursor()
	for i, want := range replayed {
		ev, ok := c.Next()
		if !ok {
			t.Fatalf("cursor ended at event %d, replay has %d", i, len(replayed))
		}
		got := call{kind: ev.Kind, addr: ev.Addr, size: ev.Size, write: ev.Write, n: ev.N, on: ev.On}
		if ev.Kind != KindAccess {
			got.addr, got.size, got.write = 0, 0, false
		}
		if got != want {
			t.Fatalf("event %d: cursor %+v, replay %+v", i, got, want)
		}
	}
	if ev, ok := c.Next(); ok || ev.Kind != KindEnd {
		t.Fatalf("cursor did not end after %d events: %+v", len(replayed), ev)
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindCompute, N: 2}, "Compute(2)"},
		{Event{Kind: KindMarker, On: true}, "Marker(ON)"},
		{Event{Kind: KindMarker}, "Marker(OFF)"},
		{Event{Kind: KindAccess, Addr: 0x1000, Size: 8}, "load 8 bytes @ 0x1000"},
		{Event{Kind: KindAccess, Addr: 0x20, Size: 4, Write: true}, "store 4 bytes @ 0x20"},
		{Event{Kind: KindEnd}, "<end of stream>"},
	}
	for _, tc := range cases {
		if got := tc.ev.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestFirstDivergence(t *testing.T) {
	a := recordSample(t)

	if idx, _, _, diverged := FirstDivergence(a, recordSample(t)); diverged {
		t.Fatalf("identical traces reported diverged at %d", idx)
	}

	// Same length, one differing call.
	r := NewRecorder()
	emitUpTo := func(em mem.Emitter, stop int) int {
		l := &callLog{}
		emit(l)
		for i, c := range l.calls {
			if i == stop {
				return i
			}
			switch c.kind {
			case KindAccess:
				em.Access(c.addr, c.size, c.write)
			case KindCompute:
				em.Compute(c.n)
			case KindMarker:
				em.Marker(c.on)
			}
		}
		return len(l.calls)
	}
	emitUpTo(r, 5)
	r.Access(0xDEAD, 8, true) // diverges here
	b := r.Trace()
	idx, ea, eb, diverged := FirstDivergence(a, b)
	if !diverged || idx != 5 {
		t.Fatalf("diverged=%v at %d, want divergence at 5", diverged, idx)
	}
	if ea != (Event{Kind: KindCompute, N: 3}) || eb.Addr != 0xDEAD || !eb.Write {
		t.Fatalf("divergence events %s / %s", ea, eb)
	}

	// Prefix: the shorter side ends.
	r = NewRecorder()
	emitUpTo(r, 4)
	p := r.Trace()
	idx, ea, eb, diverged = FirstDivergence(a, p)
	if !diverged || idx != 4 || eb.Kind != KindEnd || ea.Kind == KindEnd {
		t.Fatalf("prefix divergence: idx=%d ea=%s eb=%s diverged=%v", idx, ea, eb, diverged)
	}
}

var _ mem.Emitter = (*callLog)(nil)
