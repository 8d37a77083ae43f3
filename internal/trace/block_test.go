package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"selcache/internal/mem"
)

// batchLog implements mem.BatchEmitter by expanding every block through the
// reference scalar consumer into the embedded callLog, recording how many
// EmitBlock calls it received.
type batchLog struct {
	callLog
	blocks int
}

func (l *batchLog) EmitBlock(b *mem.EventBlock) {
	l.blocks++
	b.Emit(&l.callLog)
}

func TestBlockCursorMatchesScalar(t *testing.T) {
	tr := recordSample(t)
	var want callLog
	emit(&want)

	// A tiny capacity forces the sample stream across several blocks.
	cur, ok := tr.BlockCursor()
	if !ok {
		t.Fatal("recorded stream did not pack")
	}
	var got callLog
	blk := NewBlock(3)
	for cur.Next(blk) {
		if blk.Len() < 1 || blk.Len() > blk.Cap() {
			t.Fatalf("block length %d outside (0, %d]", blk.Len(), blk.Cap())
		}
		blk.Emit(&got)
	}
	if len(got.calls) != len(want.calls) {
		t.Fatalf("cursor replay expanded to %d calls, want %d", len(got.calls), len(want.calls))
	}
	for i := range want.calls {
		if got.calls[i] != want.calls[i] {
			t.Fatalf("call %d = %+v, want %+v", i, got.calls[i], want.calls[i])
		}
	}
}

func TestReplayBatchedMatchesScalar(t *testing.T) {
	tr := recordSample(t)
	var want callLog
	tr.ReplayScalar(&want)

	var got batchLog
	tr.ReplayBatched(&got, nil)
	if got.blocks == 0 {
		t.Fatal("batched replay emitted no blocks")
	}
	if len(got.calls) != len(want.calls) {
		t.Fatalf("batched replay expanded to %d calls, want %d", len(got.calls), len(want.calls))
	}
	for i := range want.calls {
		if got.calls[i] != want.calls[i] {
			t.Fatalf("call %d = %+v, want %+v", i, got.calls[i], want.calls[i])
		}
	}
}

func TestReplayRoutesBatchEmitters(t *testing.T) {
	tr := recordSample(t)
	var scalar callLog
	tr.ReplayScalar(&scalar)

	// Replay must detect mem.BatchEmitter and route through the block
	// engine...
	var b batchLog
	tr.Replay(&b)
	if b.blocks == 0 {
		t.Fatal("Replay did not route a BatchEmitter through the block path")
	}
	if len(b.calls) != len(scalar.calls) {
		t.Fatalf("routed replay expanded to %d calls, want %d", len(b.calls), len(scalar.calls))
	}
	// ...and leave plain emitters on the scalar path (callLog does not
	// implement EmitBlock; this is a compile-time fact, the call just
	// exercises it).
	var plain callLog
	tr.Replay(&plain)
	if len(plain.calls) != len(scalar.calls) {
		t.Fatalf("plain replay expanded to %d calls, want %d", len(plain.calls), len(scalar.calls))
	}
}

// TestBlockCursorWindowsAlias checks that the cursor hands out windows of
// the trace's own packed words, in order and without a copy, each capped
// at its length so no consumer can append into the next window.
func TestBlockCursorWindowsAlias(t *testing.T) {
	tr := recordSample(t)
	cur, ok := tr.BlockCursor()
	if !ok {
		t.Fatal("BlockCursor reported a stream that does not pack")
	}
	blk := NewBlock(4)
	off := 0
	for cur.Next(blk) {
		w := blk.Words()
		if &w[0] != &tr.packed[off] {
			t.Fatalf("window at word %d does not alias the packed stream", off)
		}
		if cap(w) != len(w) {
			t.Fatalf("window at word %d has capacity %d past its length %d", off, cap(w), len(w))
		}
		off += len(w)
	}
	if off != len(tr.packed) || blk.Len() != 0 {
		t.Fatalf("windows covered %d of %d words, final block length %d", off, len(tr.packed), blk.Len())
	}
}

func TestRecorderRejectsUnpackableValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(r *Recorder)
		want string
	}{
		{"address 2^56", func(r *Recorder) { r.Access(1<<56, 8, false) }, "does not fit 56 bits"},
		{"address 2^63", func(r *Recorder) { r.Access(1<<63, 1, true) }, "does not fit 56 bits"},
		{"compute 2^24", func(r *Recorder) { r.Compute(1 << 24) }, "does not fit 24 bits"},
	} {
		if msg := recordPanic(tc.call); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: recorder panic %q, want one mentioning %q", tc.name, msg, tc.want)
		}
	}
	// The largest packable values record and replay exactly.
	r := NewRecorder()
	r.Access(mem.MaxWordAddr, 8, true)
	r.Compute(mem.MaxWordN)
	var got callLog
	got.replayOf(r.Trace())
	want := []call{
		{kind: KindAccess, addr: mem.MaxWordAddr, size: 8, write: true},
		{kind: KindCompute, n: mem.MaxWordN},
	}
	if len(got.calls) != 2 || got.calls[0] != want[0] || got.calls[1] != want[1] {
		t.Fatalf("largest packable values replayed as %+v, want %+v", got.calls, want)
	}
}

// recordPanic runs call on a fresh recorder and returns its panic message,
// or "" when it did not panic.
func recordPanic(call func(r *Recorder)) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	call(NewRecorder())
	return ""
}

func TestDecodeRejectsUnpackableStream(t *testing.T) {
	// A long jump up from 2^56-1 and a wrap below zero both leave the
	// packable range.
	high := handEncode([]call{{kind: KindAccess, addr: mem.MaxWordAddr, size: 8}, {kind: KindAccess, addr: 1 << 56, size: 8}})
	wrap := handEncode([]call{{kind: KindAccess, addr: 8, size: 8}, {kind: KindAccess, addr: ^mem.Addr(0), size: 1}})
	bigN := handEncode([]call{{kind: KindCompute, n: 1 << 24}})
	for name, data := range map[string][]byte{"address 2^56": high, "wrapped address": wrap, "compute 2^24": bigN} {
		_, err := Decode(data)
		if err == nil || !strings.Contains(err.Error(), "corrupt stream") || !strings.Contains(err.Error(), "does not fit") {
			t.Errorf("%s: Decode returned %v, want a corrupt-stream error naming the limit", name, err)
		}
	}
	// One below each limit decodes.
	ok := handEncode([]call{{kind: KindAccess, addr: mem.MaxWordAddr, size: 8}, {kind: KindCompute, n: mem.MaxWordN}})
	if _, err := Decode(ok); err != nil {
		t.Fatalf("largest packable values rejected: %v", err)
	}
}

// TestDecodeRejectsLongComputeRuns decodes compute runs longer than one
// word holds, up to the 2^62 calls the decoder once accepted from a
// 45-byte file. Every one is a corrupt stream, rejected without allocating
// words for the claimed calls; the longest run one word holds decodes to
// exactly that word.
func TestDecodeRejectsLongComputeRuns(t *testing.T) {
	stream := func(count uint64) []byte {
		payload := binary.AppendUvarint([]byte{mem.EvCompute, 1}, count)
		payload = append(payload, mem.EvMarkerOn)
		return encodeRaw(Meta{Events: count + 1, ComputeInstr: count, ComputeCalls: count, Markers: 1, OnMarkers: 1}, payload)
	}
	for _, count := range []uint64{mem.MaxWordCount + 1, 1 << 48, 1 << 62} {
		data := stream(count)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(data)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "corrupt stream") || !strings.Contains(err.Error(), "does not fit 32 bits") {
			t.Fatalf("run of %d calls (%d bytes): Decode returned %v, want a corrupt-stream error naming the limit", count, len(data), err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Errorf("rejecting a run of %d calls allocated %d bytes", count, b)
		}
	}
	data := stream(mem.MaxWordCount)
	tr, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{mem.ComputeWord(1, mem.MaxWordCount), mem.MarkerWord(true)}
	if !slices.Equal(tr.packed, want) || cap(tr.packed) != len(want) {
		t.Fatalf("packed words %#x (capacity %d), want %#x", tr.packed, cap(tr.packed), want)
	}
	if !bytes.Equal(tr.Encode(), data) || tr.EncodedSize() != len(data) {
		t.Fatal("re-encoding the longest one-word run changed its bytes")
	}
}

// TestDecodeDropsCanonicalBytes decodes a recorded stream: its payload is
// exactly what its words rebuild, so the decoded trace holds the
// recorder's words and no varint bytes, and still encodes byte for byte.
func TestDecodeDropsCanonicalBytes(t *testing.T) {
	rec := recordSample(t)
	enc := rec.Encode()
	tr, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tr.packed, rec.packed) || cap(tr.packed) != len(tr.packed) {
		t.Fatalf("decoded words %#x (capacity %d), recorded %#x", tr.packed, cap(tr.packed), rec.packed)
	}
	if !bytes.Equal(tr.Encode(), enc) || tr.EncodedSize() != len(enc) {
		t.Fatal("decoded stream does not re-encode its bytes")
	}
}

// TestDecodeRejectsNonCanonicalVarints decodes streams that each pad one
// varint, in the payload or in the header, with a redundant continuation
// byte. The same calls recorded decode fine; the padded form is corrupt,
// because its words would re-encode to different bytes.
func TestDecodeRejectsNonCanonicalVarints(t *testing.T) {
	access := Meta{Events: 1, Accesses: 1, Reads: 1}
	compute := Meta{Events: 2, ComputeInstr: 6, ComputeCalls: 2}
	for _, tc := range []struct {
		name    string
		meta    Meta
		payload []byte
		padded  []byte
	}{
		{"access delta", access, []byte{mem.AccessTag(8, false), 0x10}, []byte{mem.AccessTag(8, false), 0x90, 0x00}},
		{"compute size", compute, []byte{mem.EvCompute, 0x03, 0x02}, []byte{mem.EvCompute, 0x83, 0x00, 0x02}},
		{"compute count", compute, []byte{mem.EvCompute, 0x03, 0x02}, []byte{mem.EvCompute, 0x03, 0x82, 0x00}},
	} {
		if _, err := Decode(encodeRaw(tc.meta, tc.payload)); err != nil {
			t.Fatalf("%s: canonical form rejected: %v", tc.name, err)
		}
		_, err := Decode(encodeRaw(tc.meta, tc.padded))
		if err == nil || !strings.Contains(err.Error(), "corrupt stream") || !strings.Contains(err.Error(), "padded") {
			t.Fatalf("%s: Decode returned %v, want a corrupt-stream error", tc.name, err)
		}
	}

	// Pad each header field in turn: magic, then eight one-byte fields.
	good := recordSample(t).Encode()
	checked := 0
	for field := 0; field < 8; field++ {
		off := len(magic)
		for i := 0; i < field; i++ {
			_, n := binary.Uvarint(good[off:])
			off += n
		}
		if good[off] >= 0x80 {
			continue // a multi-byte field; padding its last byte is the same check
		}
		padded := append(append(append([]byte{}, good[:off]...), good[off]|0x80, 0x00), good[off+1:]...)
		_, err := Decode(padded)
		if err == nil || !strings.Contains(err.Error(), "reading header") || !strings.Contains(err.Error(), "padded") {
			t.Fatalf("header field %d padded: Decode returned %v, want a header error", field, err)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d header fields were one byte long", checked)
	}
}

// TestConcurrentReplaysShareWords replays one trace from several
// goroutines at once — batched, scalar, by cursor and by encoding — the
// way sweep workers and selcached share a cached stream. Run under -race:
// the words are final at construction, and every reader only reads them.
func TestConcurrentReplaysShareWords(t *testing.T) {
	tr := recordSample(t)
	var want callLog
	emit(&want)
	wantEnc := recordSample(t).Encode()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got callLog
			switch g % 4 {
			case 0:
				var b batchLog
				tr.ReplayBatched(&b, NewBlock(g+1))
				got = b.callLog
			case 1:
				tr.ReplayScalar(&got)
			case 2:
				for c := tr.Cursor(); ; {
					ev, ok := c.Next()
					if !ok {
						break
					}
					got.calls = append(got.calls, call{kind: ev.Kind})
				}
				if len(got.calls) != len(want.calls) {
					t.Errorf("cursor walked %d events, want %d", len(got.calls), len(want.calls))
				}
				return
			case 3:
				if !bytes.Equal(tr.Encode(), wantEnc) {
					t.Error("concurrent Encode changed the bytes")
				}
				return
			}
			if fmt.Sprint(got.calls) != fmt.Sprint(want.calls) {
				t.Errorf("goroutine %d replayed %v, want %v", g, got.calls, want.calls)
			}
		}(g)
	}
	wg.Wait()
}
