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
// In memory a Trace is mem's packed event words, one uint64 per event: the
// Recorder appends them as the program runs, and Replay, Cursor and
// BlockCursor walk them without decoding. The varint wire form below
// exists only at the file boundary: Encode/WriteTo build it from the
// words, and Decode/ReadFrom validate it and pack it before returning.
//
// Replay fidelity is call-exact, not merely total-exact: the simulated
// machine accumulates cycles in floating point, so folding two Compute
// calls into one with the summed count could change rounding. Run-length
// encoding therefore compresses *repeated identical* Compute calls and
// Replay re-issues each call of the run individually. The Recorder caps a
// run at mem.MaxWordCount calls, so each run is one word and one wire
// event.
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
// (mem.MaxWordAddr, mem.MaxWordN), so every stream Decode accepts packs; a
// longer run than mem.MaxWordCount packs as several words. Decode validates
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

	// packed holds mem's event words, one per wire event, final at
	// construction: replays on any goroutine read them, none writes them.
	packed []uint64

	// raw keeps a decoded payload only when rebuildWire would not
	// reproduce it (non-minimal varints, or a run split across words), so
	// WriteTo stays byte-exact. payloadLen is the wire payload's length.
	raw        []byte
	payloadLen int
}

// EncodedSize returns the total encoded size in bytes (header + payload).
func (t *Trace) EncodedSize() int {
	return len(t.header()) + t.payloadLen
}

// header returns the encoded header: the magic, the counters and the
// payload length.
func (t *Trace) header() []byte {
	hdr := []byte(magic)
	for _, v := range []uint64{t.Meta.Events, t.Meta.Accesses, t.Meta.Reads, t.Meta.ComputeInstr,
		t.Meta.ComputeCalls, t.Meta.Markers, t.Meta.OnMarkers, uint64(t.payloadLen)} {
		hdr = binary.AppendUvarint(hdr, v)
	}
	return hdr
}

func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// varintLen is the length of binary.AppendVarint's zigzag encoding of v.
func varintLen(v int64) int {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

// Recorder chunk capacities, in words. The first is small because selcached
// records thousands of streams of a few thousand events; chunks then double,
// so a long capture never moves what it has recorded until Trace's copy.
const firstChunk, maxChunk = 1 << 10, 1 << 16

// Recorder captures an event stream straight into packed words. It
// implements mem.Emitter; feed it a program run (loopir.Run) and call Trace
// for the finished capture. The zero value is not ready; use NewRecorder.
type Recorder struct {
	full  [][]uint64 // filled chunks, in order
	cur   []uint64   // chunk being filled, never grown past its capacity; holds the last word
	words int        // words in full

	prevAddr mem.Addr
	meta     Meta
	wireLen  int // wire payload bytes the words encode to
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{cur: make([]uint64, 0, firstChunk)}
}

// put appends one event word, starting a new chunk first when the current
// one is full, so the last word is always in cur.
func (r *Recorder) put(w uint64) {
	if len(r.cur) == cap(r.cur) {
		r.full = append(r.full, r.cur)
		r.words += len(r.cur)
		r.cur = make([]uint64, 0, min(2*cap(r.cur), maxChunk))
	}
	r.cur = append(r.cur, w)
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
	if write {
		r.meta.Writes++
	} else {
		r.meta.Reads++
	}
	r.put(mem.AccessWord(addr, mem.AccessTag(size, write)))
	r.wireLen += 1 + varintLen(int64(addr)-int64(r.prevAddr)) // wrapping on purpose
	r.prevAddr = addr
	r.meta.Accesses++
	r.meta.Events++
}

// Compute implements mem.Emitter. Calls with n <= 0 are dropped: they are
// no-ops against every downstream emitter, and the format requires n > 0.
// It panics on n above mem.MaxWordN, which the packed form could not
// replay. A call identical to the previous one extends that call's run
// word in place, up to mem.MaxWordCount calls.
func (r *Recorder) Compute(n int) {
	if n <= 0 {
		return
	}
	if n > mem.MaxWordN {
		panic(fmt.Sprintf("trace: compute size %d does not fit 24 bits", n))
	}
	r.meta.ComputeInstr += uint64(n)
	r.meta.ComputeCalls++
	r.meta.Events++
	if last := len(r.cur) - 1; last >= 0 && mem.WordKind(r.cur[last]) == mem.EvCompute {
		if cn, count := mem.WordCompute(r.cur[last]); cn == n && count < mem.MaxWordCount {
			r.cur[last] = mem.ComputeWord(uint64(n), count+1)
			r.wireLen += uvarintLen(count+1) - uvarintLen(count)
			return
		}
	}
	r.put(mem.ComputeWord(uint64(n), 1))
	r.wireLen += 2 + uvarintLen(uint64(n))
}

// Marker implements mem.Emitter.
func (r *Recorder) Marker(on bool) {
	r.put(mem.MarkerWord(on))
	r.wireLen++
	if on {
		r.meta.OnMarkers++
	}
	r.meta.Markers++
	r.meta.Events++
}

// Trace returns the capture so far as an independent copy of its words.
// The recorder may keep recording afterwards; a later Trace call returns
// the longer stream.
func (r *Recorder) Trace() *Trace {
	words := make([]uint64, 0, r.words+len(r.cur))
	for _, c := range r.full {
		words = append(words, c...)
	}
	words = append(words, r.cur...)
	return &Trace{Meta: r.meta, packed: words, payloadLen: r.wireLen}
}

// pack resolves a validated payload p into the words event words validate
// counted, access deltas turned into absolute addresses and the wire tag as
// each word's low byte. A compute run longer than mem.MaxWordCount is split
// into runs of the same size, which replay as the same calls. canonical
// reports whether rebuildWire reproduces p: no split run, only minimal
// varints.
func pack(p []byte, words int) (packed []uint64, canonical bool) {
	packed = make([]uint64, 0, words)
	canonical = true
	var prev mem.Addr
	for len(p) > 0 {
		tag := p[0]
		p = p[1:]
		switch tag & 0x03 {
		case mem.EvAccess:
			delta, n := binary.Varint(p)
			p = p[n:]
			canonical = canonical && n == varintLen(delta)
			prev = mem.Addr(int64(prev) + delta)
			packed = append(packed, mem.AccessWord(prev, tag))
		case mem.EvCompute:
			cn, n1 := binary.Uvarint(p)
			count, n2 := binary.Uvarint(p[n1:])
			p = p[n1+n2:]
			canonical = canonical && n1 == uvarintLen(cn) && n2 == uvarintLen(count) && count <= mem.MaxWordCount
			for ; count > mem.MaxWordCount; count -= mem.MaxWordCount {
				packed = append(packed, mem.ComputeWord(cn, mem.MaxWordCount))
			}
			packed = append(packed, mem.ComputeWord(cn, count))
		default:
			packed = append(packed, uint64(tag))
		}
	}
	return packed, canonical
}

// rebuildWire encodes the packed words as the canonical wire payload: one
// event per word, deltas against the previous access, minimal varints.
// That is a recorded stream's payload, and a decoded one's when pack found
// it canonical.
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
// the header counters. It returns the number of words pack produces: one
// per wire event, plus one for every mem.MaxWordCount calls a run holds
// beyond its first.
func validate(meta Meta, payload []byte) (words int, err error) {
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
				return 0, corruptf(start, "access tag 0x%02x has reserved bits set", tag)
			}
			delta, n := binary.Varint(payload[off:])
			if n <= 0 {
				return 0, corruptf(start, "truncated or overlong access delta")
			}
			off += n
			prev = mem.Addr(int64(prev) + delta)
			if prev > mem.MaxWordAddr {
				return 0, corruptf(start, "access address %#x does not fit 56 bits", uint64(prev))
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
				return 0, corruptf(start, "compute tag 0x%02x has reserved bits set", tag)
			}
			cn, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return 0, corruptf(start, "truncated or overlong compute size")
			}
			off += n
			count, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return 0, corruptf(start, "truncated or overlong compute count")
			}
			off += n
			if cn == 0 || count == 0 {
				return 0, corruptf(start, "compute with zero size or count")
			}
			if cn > mem.MaxWordN {
				return 0, corruptf(start, "compute size %d does not fit 24 bits", cn)
			}
			if count > uint64(1)<<62/cn {
				return 0, corruptf(start, "compute run %d x %d overflows", cn, count)
			}
			words += int((count-1)/mem.MaxWordCount) + 1
			got.ComputeInstr += cn * count
			got.ComputeCalls += count
			got.Events += count
		case mem.EvMarkerOn, mem.EvMarkerOff:
			if tag&^0x03 != 0 {
				return 0, corruptf(start, "marker tag 0x%02x has reserved bits set", tag)
			}
			got.Markers++
			if tag == mem.EvMarkerOn {
				got.OnMarkers++
			}
			got.Events++
		}
	}
	if got != meta {
		return 0, fmt.Errorf("trace: header/payload mismatch: header %+v, payload holds %+v", meta, got)
	}
	return words + int(got.Accesses+got.Markers), nil
}

// WriteTo implements io.WriterTo, emitting the encoded trace.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	payload := t.raw
	if payload == nil {
		payload = t.rebuildWire()
	}
	n1, err := w.Write(t.header())
	if err != nil {
		return int64(n1), err
	}
	n2, err := w.Write(payload)
	return int64(n1) + int64(n2), err
}

// ReadFrom decodes, validates and packs a trace from r.
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
	words, err := validate(meta, payload)
	if err != nil {
		return nil, err
	}
	t := &Trace{Meta: meta, payloadLen: len(payload)}
	var canonical bool
	if t.packed, canonical = pack(payload, words); !canonical {
		t.raw = payload
	}
	return t, nil
}

// Decode decodes, validates and packs an in-memory encoded trace.
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
