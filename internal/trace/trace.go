// Package trace provides a compact binary capture/replay substrate for the
// simulated event streams that drive every experiment in this repository.
//
// A Recorder implements mem.Emitter and captures the exact sequence of
// Access/Compute/Marker calls a program run emits; Replay drives any
// downstream mem.Emitter with a byte-identical call sequence. Because the
// event stream of a (workload, version, compiler-config) tuple does not
// depend on the machine configuration or hardware mechanism — the simulator
// never feeds values back into the program — a stream recorded once can be
// replayed against every machine variant, which is how the experiment
// sweeps avoid re-interpreting the same program dozens of times.
//
// Replay fidelity is call-exact, not merely total-exact: the simulated
// machine accumulates cycles in floating point, so folding two Compute
// calls into one with the summed count could change rounding. Run-length
// encoding therefore compresses *repeated identical* Compute calls and
// Replay re-issues each call of the run individually.
//
// # The .sctrace format
//
// A trace is a header followed by a payload of variable-length events.
// All integers are unsigned LEB128 varints (encoding/binary's Uvarint)
// unless noted; addresses are delta-encoded with zigzag-signed varints
// against the previous access address (initially zero).
//
//	header:
//	  magic    8 bytes  "sctrace\x01" (the trailing byte is the version)
//	  events   uvarint  total emitter calls in the stream
//	  accesses uvarint  number of Access calls
//	  reads    uvarint  Access calls with write=false
//	  cinstr   uvarint  total instructions covered by Compute calls
//	  ccalls   uvarint  number of Compute calls
//	  markers  uvarint  number of Marker calls
//	  onmk     uvarint  Marker calls with on=true
//	  paylen   uvarint  payload length in bytes
//	payload:  paylen bytes of events
//
//	event: a tag byte followed by operands.
//	  tag & 0x03 (kind):
//	    0  Compute: operands uvarint n (instructions per call,
//	       0 < n < 2^24), uvarint count (run length, > 0). Replays as
//	       count calls of Compute(n). Upper tag bits must be zero.
//	    1  Marker(on=true). No operands; upper tag bits must be zero.
//	    2  Marker(on=false). No operands; upper tag bits must be zero.
//	    3  Access: tag bit 0x04 is the write flag, bits 0x18 hold
//	       log2(size) (sizes 1, 2, 4, 8), bits 0xE0 must be zero.
//	       Operand: zigzag varint delta = addr - prevAddr (wrapping
//	       int64 arithmetic); prevAddr updates to addr, which must be
//	       below 2^56.
//
// The bounds on n and addresses are those of the in-memory packed form
// (mem.MaxWordAddr, mem.MaxWordN), so every stream Decode accepts packs. Decode validates
// the whole payload against the header counters, so a *Trace held in
// memory is always well-formed: Replay and Cursor operate on validated data
// and do not return errors. Truncated or corrupt inputs are
// rejected by Decode/ReadFrom with a descriptive error, never a panic
// (FuzzTraceRoundTrip enforces this).
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"

	"selcache/internal/mem"
)

// magic identifies a .sctrace stream; the last byte is the format version.
const magic = "sctrace\x01"

// A wire tag byte is the low byte of the event's packed word: the kind
// (mem.Ev*) in bits 0-1, and for an access the write flag and log2(size)
// (mem.AccessTag). An access tag must leave accReserved clear; other tags
// carry the kind alone.
const accReserved = 0xE0

// Meta summarizes a trace without decoding its payload (the header
// counters).
type Meta struct {
	// Events is the total number of emitter calls the stream replays.
	Events uint64
	// Accesses, Reads and Writes count Access calls.
	Accesses, Reads, Writes uint64
	// ComputeInstr is the sum of n over all Compute(n) calls and
	// ComputeCalls the number of calls.
	ComputeInstr, ComputeCalls uint64
	// Markers counts Marker calls, OnMarkers those with on=true.
	Markers, OnMarkers uint64
}

// Instructions returns the simulated instruction total of the stream: each
// access and marker costs one instruction, Compute(n) costs n.
func (m Meta) Instructions() uint64 {
	return m.Accesses + m.Markers + m.ComputeInstr
}

// Trace is a validated, immutable recorded event stream.
type Trace struct {
	// Meta holds the header counters.
	Meta Meta

	// payload holds the varint wire form. Once the packed form is built
	// (and representable), the wire form is redundant — the packing is
	// lossless and re-encodable byte-for-byte — so ensurePacked releases
	// it to halve the resident cost of a trace cache full of replayed
	// streams. All payload readers must go through wire(), which runs
	// ensurePacked first: the release happens inside the sync.Once, so
	// every subsequent read is ordered after it.
	payload    []byte
	payloadLen int

	// Packed replay form (mem's event words), built lazily on first use.
	// The experiment sweeps replay each cached stream once per machine
	// configuration, so the varint decode is paid once here and every
	// replay afterwards hands out windows of these words. Guarded by
	// packOnce: traces are shared across sweep workers, and the words are
	// never written after pack.
	packOnce sync.Once
	packed   []uint64
}

// EncodedSize returns the total encoded size in bytes (header + payload).
func (t *Trace) EncodedSize() int {
	return len(magic) + uvarintLen(t.Meta.Events) + uvarintLen(t.Meta.Accesses) +
		uvarintLen(t.Meta.Reads) + uvarintLen(t.Meta.ComputeInstr) +
		uvarintLen(t.Meta.ComputeCalls) + uvarintLen(t.Meta.Markers) +
		uvarintLen(t.Meta.OnMarkers) + uvarintLen(uint64(t.payloadLen)) +
		t.payloadLen
}

func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// Recorder captures an event stream. It implements mem.Emitter; feed it a
// program run (loopir.Run) and call Trace for the finished capture. The
// zero value is not ready; use NewRecorder.
type Recorder struct {
	buf      []byte
	prevAddr mem.Addr
	meta     Meta

	// Pending run of identical Compute calls (run-length folding).
	pendingN     int
	pendingCount uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{buf: make([]byte, 0, 1<<16)}
}

func (r *Recorder) flushCompute() {
	if r.pendingCount == 0 {
		return
	}
	r.buf = append(r.buf, mem.EvCompute)
	r.buf = binary.AppendUvarint(r.buf, uint64(r.pendingN))
	r.buf = binary.AppendUvarint(r.buf, r.pendingCount)
	r.pendingCount = 0
}

// Access implements mem.Emitter. It panics on a size other than 1, 2, 4 or
// 8 and on an address above mem.MaxWordAddr: both are program bugs, and the
// packed form could not replay them.
func (r *Recorder) Access(addr mem.Addr, size uint8, write bool) {
	if size == 0 || size&(size-1) != 0 || size > 8 {
		panic(fmt.Sprintf("trace: access size %d is not a power of two <= 8", size))
	}
	if addr > mem.MaxWordAddr {
		panic(fmt.Sprintf("trace: access address %#x does not fit 56 bits", uint64(addr)))
	}
	r.flushCompute()
	if write {
		r.meta.Writes++
	} else {
		r.meta.Reads++
	}
	r.buf = append(r.buf, mem.AccessTag(size, write))
	delta := int64(addr) - int64(r.prevAddr) // wrapping on purpose
	r.buf = binary.AppendVarint(r.buf, delta)
	r.prevAddr = addr
	r.meta.Accesses++
	r.meta.Events++
}

// Compute implements mem.Emitter. Calls with n <= 0 are dropped: they are
// no-ops against every downstream emitter, and the format requires n > 0.
// It panics on n above mem.MaxWordN, which the packed form could not
// replay.
func (r *Recorder) Compute(n int) {
	if n <= 0 {
		return
	}
	if n > mem.MaxWordN {
		panic(fmt.Sprintf("trace: compute size %d does not fit 24 bits", n))
	}
	if r.pendingCount > 0 && r.pendingN == n {
		r.pendingCount++
	} else {
		r.flushCompute()
		r.pendingN = n
		r.pendingCount = 1
	}
	r.meta.ComputeInstr += uint64(n)
	r.meta.ComputeCalls++
	r.meta.Events++
}

// Marker implements mem.Emitter.
func (r *Recorder) Marker(on bool) {
	r.flushCompute()
	r.buf = append(r.buf, byte(mem.MarkerWord(on)))
	if on {
		r.meta.OnMarkers++
	}
	r.meta.Markers++
	r.meta.Events++
}

// Trace finalizes the capture. The recorder may keep recording afterwards;
// a later Trace call returns the longer stream.
func (r *Recorder) Trace() *Trace {
	r.flushCompute()
	payload := make([]byte, len(r.buf))
	copy(payload, r.buf)
	return &Trace{Meta: r.meta, payload: payload, payloadLen: len(payload)}
}

// pack resolves the payload into mem's packed event words: one word per
// encoded event, varints resolved and access deltas turned into absolute
// addresses, the wire tag as the word's low byte. validate has bounded
// every address and compute size, so only a compute run longer than
// mem.MaxWordCount needs more than one word; it is split into several runs
// of the same size, which replay as the same calls.
func (t *Trace) pack() []uint64 {
	// Upper bound on the words: folding makes encoded Compute entries
	// fewer than ComputeCalls, and every entry takes at least one payload
	// byte (only a split run of 2^32 calls or more yields extra words).
	// The header is untrusted, so the payload length caps it.
	words := make([]uint64, 0, min(t.Meta.Accesses+t.Meta.Markers+t.Meta.ComputeCalls, uint64(len(t.payload))))
	var prev mem.Addr
	p := t.payload
	for len(p) > 0 {
		tag := p[0]
		p = p[1:]
		switch tag & 0x03 {
		case mem.EvAccess:
			delta, n := binary.Varint(p)
			p = p[n:]
			prev = mem.Addr(int64(prev) + delta)
			words = append(words, mem.AccessWord(prev, tag))
		case mem.EvCompute:
			cn, n := binary.Uvarint(p)
			p = p[n:]
			count, n := binary.Uvarint(p)
			p = p[n:]
			for ; count > mem.MaxWordCount; count -= mem.MaxWordCount {
				words = append(words, mem.ComputeWord(cn, mem.MaxWordCount))
			}
			words = append(words, mem.ComputeWord(cn, count))
		default:
			words = append(words, uint64(tag))
		}
	}
	return words
}

// ensurePacked builds the packed replay form once. When the packed form
// re-encodes the payload byte-for-byte (always true for recorder-produced
// streams, whose varints are minimal), the varint payload is released —
// keeping both would double a replayed stream's resident size. Decoded
// streams with non-minimal varints or split compute runs keep their
// original bytes so WriteTo/Encode stay exact. The release happens inside
// the Once, so every payload reader that calls ensurePacked first observes
// it safely.
func (t *Trace) ensurePacked() {
	t.packOnce.Do(func() {
		t.packed = t.pack()
		if bytes.Equal(t.rebuildWire(), t.payload) {
			t.payload = nil
		}
	})
}

// wire returns the varint wire form of the payload, rebuilding it from the
// packed form when the original was released. Cold path: only encoding
// (WriteTo) reads it.
func (t *Trace) wire() []byte {
	t.ensurePacked()
	if t.payload == nil {
		return t.rebuildWire()
	}
	return t.payload
}

// rebuildWire re-encodes the packed words into the exact payload bytes the
// recorder produced: packing is 1:1 per encoded event, delta encoding is
// deterministic, and both encoders emit minimal varints.
func (t *Trace) rebuildWire() []byte {
	buf := make([]byte, 0, t.payloadLen)
	var prev mem.Addr
	for _, w := range t.packed {
		buf = append(buf, byte(w))
		switch mem.WordKind(w) {
		case mem.EvAccess:
			addr := mem.WordAddr(w)
			buf = binary.AppendVarint(buf, int64(addr)-int64(prev))
			prev = addr
		case mem.EvCompute:
			n, count := mem.WordCompute(w)
			buf = binary.AppendUvarint(buf, uint64(n))
			buf = binary.AppendUvarint(buf, count)
		}
	}
	return buf
}

// Replay drives em with the recorded call sequence: the same calls, the
// same arguments, the same order as the run that was captured.
//
// Consumers implementing mem.BatchEmitter are driven through the block
// engine (windows of packed words, one call per block); the call sequence
// is semantically identical and implementations guarantee bit-identical
// state. ReplayScalar forces the event-at-a-time path.
func (t *Trace) Replay(em mem.Emitter) {
	if be, ok := em.(mem.BatchEmitter); ok {
		t.ReplayBatched(be, nil)
		return
	}
	t.ReplayScalar(em)
}

// ReplayScalar replays one emitter call at a time, never batching — the
// reference path the batched engine is validated against, and the one
// consumers with per-event instrumentation (the differential oracle) get
// implicitly by not implementing mem.BatchEmitter. It is
// mem.EventBlock.Emit over the same windows ReplayBatched hands out.
func (t *Trace) ReplayScalar(em mem.Emitter) {
	blk := NewBlock(DefaultBlockEvents)
	cur, _ := t.BlockCursor()
	for cur.Next(blk) {
		blk.Emit(em)
	}
}

// corruptf builds a decode error with the payload offset attached.
func corruptf(off int, format string, args ...any) error {
	return fmt.Errorf("trace: corrupt stream at payload offset %d: %s", off, fmt.Sprintf(format, args...))
}

// validate walks the payload once, checking structure and cross-checking
// the header counters.
func validate(meta Meta, payload []byte) error {
	var got Meta
	var prev mem.Addr
	off := 0
	for off < len(payload) {
		tag := payload[off]
		start := off
		off++
		switch tag & 0x03 {
		case mem.EvAccess:
			if tag&accReserved != 0 {
				return corruptf(start, "access tag 0x%02x has reserved bits set", tag)
			}
			delta, n := binary.Varint(payload[off:])
			if n <= 0 {
				return corruptf(start, "truncated or overlong access delta")
			}
			off += n
			prev = mem.Addr(int64(prev) + delta)
			if prev > mem.MaxWordAddr {
				return corruptf(start, "access address %#x does not fit 56 bits", uint64(prev))
			}
			got.Accesses++
			if mem.WordWrite(uint64(tag)) {
				got.Writes++
			} else {
				got.Reads++
			}
			got.Events++
		case mem.EvCompute:
			if tag != mem.EvCompute {
				return corruptf(start, "compute tag 0x%02x has reserved bits set", tag)
			}
			cn, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return corruptf(start, "truncated or overlong compute size")
			}
			off += n
			count, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return corruptf(start, "truncated or overlong compute count")
			}
			off += n
			if cn == 0 || count == 0 {
				return corruptf(start, "compute with zero size or count")
			}
			if cn > mem.MaxWordN {
				return corruptf(start, "compute size %d does not fit 24 bits", cn)
			}
			if count > uint64(1)<<62/cn {
				return corruptf(start, "compute run %d x %d overflows", cn, count)
			}
			got.ComputeInstr += cn * count
			got.ComputeCalls += count
			got.Events += count
		case mem.EvMarkerOn, mem.EvMarkerOff:
			if tag&^0x03 != 0 {
				return corruptf(start, "marker tag 0x%02x has reserved bits set", tag)
			}
			got.Markers++
			if tag == mem.EvMarkerOn {
				got.OnMarkers++
			}
			got.Events++
		}
	}
	if got != meta {
		return fmt.Errorf("trace: header/payload mismatch: header %+v, payload holds %+v", meta, got)
	}
	return nil
}

// WriteTo implements io.WriterTo, emitting the encoded trace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	payload := t.wire()
	hdr := make([]byte, 0, len(magic)+10*8)
	hdr = append(hdr, magic...)
	hdr = binary.AppendUvarint(hdr, t.Meta.Events)
	hdr = binary.AppendUvarint(hdr, t.Meta.Accesses)
	hdr = binary.AppendUvarint(hdr, t.Meta.Reads)
	hdr = binary.AppendUvarint(hdr, t.Meta.ComputeInstr)
	hdr = binary.AppendUvarint(hdr, t.Meta.ComputeCalls)
	hdr = binary.AppendUvarint(hdr, t.Meta.Markers)
	hdr = binary.AppendUvarint(hdr, t.Meta.OnMarkers)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	n1, err := w.Write(hdr)
	if err != nil {
		return int64(n1), err
	}
	n2, err := w.Write(payload)
	return int64(n1) + int64(n2), err
}

// ReadFrom decodes and validates a trace from r.
func ReadFrom(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var mg [len(magic)]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(mg[:]) != magic {
		if string(mg[:7]) == magic[:7] {
			return nil, fmt.Errorf("trace: unsupported format version %d", mg[7])
		}
		return nil, fmt.Errorf("trace: bad magic %q", mg)
	}
	var meta Meta
	var paylen uint64
	for _, dst := range []*uint64{
		&meta.Events, &meta.Accesses, &meta.Reads, &meta.ComputeInstr,
		&meta.ComputeCalls, &meta.Markers, &meta.OnMarkers, &paylen,
	} {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
		*dst = v
	}
	if meta.Reads > meta.Accesses || meta.OnMarkers > meta.Markers {
		return nil, fmt.Errorf("trace: inconsistent header counters %+v", meta)
	}
	meta.Writes = meta.Accesses - meta.Reads
	// An event needs at least one payload byte, so paylen bounds events;
	// reject absurd headers before allocating.
	if meta.Events > 0 && paylen == 0 {
		return nil, fmt.Errorf("trace: header claims %d events with empty payload", meta.Events)
	}
	if paylen > math.MaxInt64 {
		return nil, fmt.Errorf("trace: payload length %d overflows", paylen)
	}
	// Read through CopyN rather than into a pre-sized buffer: the header is
	// untrusted, and a corrupt paylen must fail with a short read, not a
	// giant up-front allocation.
	var pbuf bytes.Buffer
	if _, err := io.CopyN(&pbuf, br, int64(paylen)); err != nil {
		return nil, fmt.Errorf("trace: reading %d-byte payload: %w", paylen, err)
	}
	payload := pbuf.Bytes()
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("trace: trailing bytes after payload")
		}
		return nil, err
	}
	if err := validate(meta, payload); err != nil {
		return nil, err
	}
	return &Trace{Meta: meta, payload: payload, payloadLen: len(payload)}, nil
}

// Decode decodes and validates an in-memory encoded trace.
func Decode(data []byte) (*Trace, error) {
	return ReadFrom(bytes.NewReader(data))
}

// Encode returns the encoded byte form (header + payload).
func (t *Trace) Encode() []byte {
	buf := make([]byte, 0, t.EncodedSize())
	w := appendWriter{&buf}
	if _, err := t.WriteTo(w); err != nil {
		panic("trace: in-memory encode failed: " + err.Error())
	}
	return buf
}

type appendWriter struct{ dst *[]byte }

func (w appendWriter) Write(p []byte) (int, error) {
	*w.dst = append(*w.dst, p...)
	return len(p), nil
}

// WriteFile writes the encoded trace to path atomically (write to a
// temporary file in the same directory, then rename).
func (t *Trace) WriteFile(path string) error {
	f, err := os.CreateTemp(dirOf(path), ".sctrace-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	w := bufio.NewWriter(f)
	if _, err := t.WriteTo(w); err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// ReadFile loads and validates a .sctrace file.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
