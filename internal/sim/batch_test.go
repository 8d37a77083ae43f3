package sim

import (
	"encoding/binary"
	"reflect"
	"testing"

	"selcache/internal/mem"
)

// fuzzWords interprets data as a packed event stream covering every kind:
// an op byte, then for an access either a 7-byte absolute address (up to
// 2^56-1) or a 1-byte signed stride from the previous one, and for a
// compute run a 3-byte n (up to 2^24-1) with a count of 1 to 8.
func fuzzWords(data []byte) []uint64 {
	var words []uint64
	var addr mem.Addr
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch op & 0x03 {
		case mem.EvAccess:
			if op&0x20 != 0 && len(data) >= 7 {
				var b [8]byte
				copy(b[:7], data)
				addr = mem.Addr(binary.LittleEndian.Uint64(b[:]))
				data = data[7:]
			} else if len(data) > 0 {
				addr = (addr + mem.Addr(int64(int8(data[0]))*8)) & mem.MaxWordAddr
				data = data[1:]
			}
			words = append(words, mem.AccessWord(addr, mem.AccessTag(1<<(op>>2&0x03), op&0x10 != 0)))
		case mem.EvCompute:
			n := uint64(1)
			if len(data) >= 3 {
				n = max(uint64(data[0])|uint64(data[1])<<8|uint64(data[2])<<16, 1)
				data = data[3:]
			}
			words = append(words, mem.ComputeWord(n, 1+uint64(op>>2&0x07)))
		default:
			words = append(words, uint64(op&0x03))
		}
	}
	return words
}

// FuzzEmitBlockMatchesEmit feeds arbitrary packed streams, cut into blocks
// of 1 to 4096 words, to bypass-selective and victim machines once through
// EmitBlock and once through the scalar reference consumer
// (mem.EventBlock.Emit); the statistics must be identical.
//
// Run continuously with `go test ./internal/sim -fuzz FuzzEmitBlockMatchesEmit`.
func FuzzEmitBlockMatchesEmit(f *testing.F) {
	f.Add([]byte{0x03, 0x01, 0x13, 0x02, 0x00, 0x05, 0x00, 0x00, 0x01, 0x07, 0x02}, uint16(0))
	f.Add([]byte{0x23, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1c, 0xff, 0xff, 0xff, 0x33, 0x80}, uint16(1))
	f.Add([]byte{0x01, 0x0f, 0x40, 0x1b, 0x40, 0x0f, 0xc0, 0x02, 0x0f, 0x40}, uint16(4095))
	// Mostly stores to 97 addresses 32 KB apart: they conflict in the L1
	// and L2 sets, so dirty evictions and write-backs reach the statistics.
	var thrash []byte
	for i := uint64(0); i < 3000; i++ {
		op := byte(0x23) // access with an absolute address
		if i%3 != 0 {
			op |= 0x10
		}
		a := i%97<<15 | i%5<<6
		thrash = append(thrash, op, byte(a), byte(a>>8), byte(a>>16), byte(a>>24), 0, 0, 0)
	}
	f.Add(thrash, uint16(100))
	f.Fuzz(func(t *testing.T, data []byte, capacity uint16) {
		words := fuzzWords(data)
		blk := mem.NewEventBlock(1 + int(capacity)%4096)
		for _, o := range []Options{
			{Mechanism: HWBypass, HonorMarkers: true},
			{Mechanism: HWVictim, HonorMarkers: true, InitiallyOn: true, Policy: PolicyEHC, WayMemo: true, Energy: true},
		} {
			batched, scalar := NewMachine(Base(), o), NewMachine(Base(), o)
			for rest := words; len(rest) > 0; {
				n := min(blk.Cap(), len(rest))
				blk.SetWindow(rest[:n])
				rest = rest[n:]
				batched.EmitBlock(blk)
				blk.Emit(scalar)
			}
			if got, want := batched.Finish(), scalar.Finish(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: EmitBlock diverges from Emit over %d words\nbatched: %+v\nscalar:  %+v", o.Mechanism, len(words), got, want)
			}
		}
	})
}
