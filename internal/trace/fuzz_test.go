package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"selcache/internal/mem"
)

// FuzzTraceRoundTrip exercises both directions of the codec:
//
//   - Treating the input as an encoded stream, Decode must reject corrupt
//     or truncated bytes with an error — never a panic — and anything it
//     accepts must pack into exactly as many words as it holds and
//     re-encode its payload byte for byte.
//   - Treating the input as an event script, a recorded stream must decode
//     to the recorder's own words and replay call-for-call losslessly. A
//     script that reaches an address the packed form cannot hold (at or
//     above 2^56) must instead make the Recorder panic by name, and Decode
//     must reject the same calls hand-encoded.
//
// Run continuously with `go test ./internal/trace -fuzz FuzzTraceRoundTrip`.
func FuzzTraceRoundTrip(f *testing.F) {
	r := NewRecorder()
	emit(r)
	f.Add(r.Trace().Encode())
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(append([]byte(magic), 0xFF, 0xFF, 0xFF))
	f.Add([]byte{0x73, 0x63, 0x74, 0x72, 0x61, 0x63, 0x65, 0x02, 0})
	f.Add([]byte{0x03 | 0x38<<2, 1}) // script: one access at 2^56
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := Decode(data); err == nil {
			if cap(tr.packed) != len(tr.packed) {
				t.Fatalf("packed %d words into a slice of capacity %d", len(tr.packed), cap(tr.packed))
			}
			enc := tr.Encode()
			if !bytes.Equal(enc[len(enc)-tr.payloadLen:], data[len(data)-tr.payloadLen:]) {
				t.Fatal("re-encoding an accepted stream changed its payload")
			}
			tr2, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-decoding an accepted stream failed: %v", err)
			}
			if tr2.Meta != tr.Meta || !bytes.Equal(tr2.Encode(), enc) {
				t.Fatal("decode/encode is not stable")
			}
		}

		var want callLog
		runScript(data, &want)
		for _, c := range want.calls {
			if c.kind == KindAccess && c.addr > mem.MaxWordAddr {
				msg := recordPanic(func(r *Recorder) { runScript(data, r) })
				if !strings.Contains(msg, "does not fit 56 bits") {
					t.Fatalf("recording address %#x: panic %q, want the 56-bit limit named", uint64(c.addr), msg)
				}
				if _, err := Decode(handEncode(want.calls)); err == nil || !strings.Contains(err.Error(), "does not fit 56 bits") {
					t.Fatalf("Decode of hand-encoded address %#x returned %v, want the 56-bit limit named", uint64(c.addr), err)
				}
				return
			}
		}
		rec := NewRecorder()
		runScript(data, rec)
		recorded := rec.Trace()
		dec, err := Decode(recorded.Encode())
		if err != nil {
			t.Fatalf("round trip rejected a freshly recorded stream: %v", err)
		}
		if !slices.Equal(dec.packed, recorded.packed) || dec.raw != nil {
			t.Fatalf("decoded words %#x (raw bytes kept: %v), recorded %#x", dec.packed, dec.raw != nil, recorded.packed)
		}
		var got callLog
		dec.Replay(&got)
		if len(got.calls) != len(want.calls) {
			t.Fatalf("replay produced %d calls, script made %d", len(got.calls), len(want.calls))
		}
		for i := range want.calls {
			if got.calls[i] != want.calls[i] {
				t.Fatalf("call %d: replayed %+v, script made %+v", i, got.calls[i], want.calls[i])
			}
		}
		if n := uint64(len(want.calls)); dec.Meta.Events != n {
			t.Fatalf("header counts %d events, script made %d calls", dec.Meta.Events, n)
		}
	})
}

// runScript interprets data as an event script: two bytes per call, mixing
// forward/backward deltas, long jumps, every access size, compute runs and
// markers. Sizes are always in {1,2,4,8} and Compute n in [1, 256]; long
// jumps (up to 2^63) and wraps below zero reach addresses the Recorder
// refuses.
func runScript(data []byte, em mem.Emitter) {
	var addr mem.Addr
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op & 0x03 {
		case 0:
			addr += mem.Addr(int64(int8(arg)) * 3)
			em.Access(addr, 1<<(op>>2&0x03), op&0x10 != 0)
		case 1:
			em.Compute(1 + int(arg))
		case 2:
			em.Marker(arg&1 == 1)
		case 3:
			addr = mem.Addr(arg) << (op >> 2 & 0x3F)
			em.Access(addr, 8, false)
		}
	}
}
