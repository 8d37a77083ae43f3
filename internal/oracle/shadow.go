package oracle

import (
	"fmt"
	"reflect"

	"selcache/internal/mem"
	"selcache/internal/sim"
	"selcache/internal/trace"
)

// DefaultCheckEvery is how often (in emitter calls) the Shadow performs the
// deep structural comparison — full cache/TLB/MAT/victim/buffer snapshots
// plus the reference units' conservation invariants — in addition to the
// cheap scalar comparison it performs after every single call.
const DefaultCheckEvery = 4096

// Divergence describes the first point where the optimized engine and the
// reference model disagree, in the style of the golden-trace differ: the
// ordinal of the offending emitter call, the event itself, and both sides'
// values of the field that differs.
type Divergence struct {
	// Index is the 0-based ordinal of the emitter call after which the
	// mismatch was detected.
	Index uint64
	// Event is the call itself.
	Event trace.Event
	// Field names what disagrees (for example "cycles" or "L1.sets[3]").
	Field string
	// Fast and Ref render the engine's and the reference's value.
	Fast, Ref string
}

// Error implements error.
func (d *Divergence) Error() string {
	return fmt.Sprintf("oracle divergence at event %d (%s): %s: engine=%s reference=%s",
		d.Index, d.Event, d.Field, d.Fast, d.Ref)
}

// Shadow runs the optimized engine and the reference model in lockstep.
// It implements mem.Emitter: every call is forwarded to both machines and
// the two are cross-checked afterwards. The first mismatch is latched as a
// Divergence and further events are ignored, so the report always points
// at the earliest observable disagreement.
//
// The per-event check compares all scalar accounting (cycles bit-exactly,
// every counter) and every unit's statistics; the full structural check
// (LRU orders, dirty bits, MAT/SLDT entries, in-flight misses) runs every
// CheckEvery events and once more at Finish.
type Shadow struct {
	fast *sim.Machine
	ref  *Machine

	// CheckEvery is the deep-check period in emitter calls; zero disables
	// periodic deep checks (Finish still runs one). Set before emitting.
	CheckEvery uint64

	opt        sim.Options
	n          uint64
	div        *Divergence
	lastMarker int8 // -1 none yet, 0 OFF, 1 ON (marker-balance check)
}

// NewShadow builds the engine/reference pair for one run.
func NewShadow(cfg sim.Config, opt sim.Options) *Shadow {
	opt = opt.WithDefaults()
	return &Shadow{
		fast:       sim.NewMachine(cfg, opt),
		ref:        NewMachine(cfg, opt),
		CheckEvery: DefaultCheckEvery,
		opt:        opt,
		lastMarker: -1,
	}
}

// Engine returns the optimized machine (read-only).
func (s *Shadow) Engine() *sim.Machine { return s.fast }

// Reference returns the reference machine (read-only).
func (s *Shadow) Reference() *Machine { return s.ref }

// Divergence returns the first recorded mismatch, or nil.
func (s *Shadow) Divergence() *Divergence { return s.div }

// Access implements mem.Emitter.
func (s *Shadow) Access(addr mem.Addr, size uint8, write bool) {
	if s.div != nil {
		return
	}
	s.fast.Access(addr, size, write)
	s.ref.Access(addr, size, write)
	s.after(trace.Event{Kind: trace.KindAccess, Addr: addr, Size: size, Write: write})
}

// Compute implements mem.Emitter.
func (s *Shadow) Compute(n int) {
	if s.div != nil {
		return
	}
	s.fast.Compute(n)
	s.ref.Compute(n)
	s.after(trace.Event{Kind: trace.KindCompute, N: n})
}

// Marker implements mem.Emitter. Beyond the lockstep check it validates
// the marker protocol itself: activate/deactivate instructions must
// strictly alternate (regions.Detect never emits two ONs or two OFFs in a
// row on any path, and the machines' on-cycle accounting assumes it).
func (s *Shadow) Marker(on bool) {
	if s.div != nil {
		return
	}
	ev := trace.Event{Kind: trace.KindMarker, On: on}
	state := int8(0)
	if on {
		state = 1
	}
	if s.lastMarker == state {
		s.record(ev, "marker balance", ev.String(), fmt.Sprintf("alternation after %s", ev))
		return
	}
	s.lastMarker = state
	s.fast.Marker(on)
	s.ref.Marker(on)
	s.after(ev)
}

// Finish drains both machines, runs the final deep check, and returns the
// engine's statistics. The error is the first Divergence, if any
// (including a final RunStats mismatch), wrapped with CheckStats internal
// consistency validation of the agreed-upon stats.
func (s *Shadow) Finish() (sim.RunStats, error) {
	fastStats := s.fast.Finish()
	fastStats.WallNanos = 0
	if s.div != nil {
		return fastStats, s.div
	}
	refStats := s.ref.Finish()
	end := trace.Event{Kind: trace.KindEnd}
	if fastStats != refStats {
		s.record(end, "RunStats", fmt.Sprintf("%+v", fastStats), fmt.Sprintf("%+v", refStats))
		return fastStats, s.div
	}
	s.compareDeep(end)
	if s.div != nil {
		return fastStats, s.div
	}
	if err := CheckStats(fastStats); err != nil {
		return fastStats, err
	}
	return fastStats, nil
}

// after performs the post-event checks and advances the event counter.
func (s *Shadow) after(ev trace.Event) {
	s.compareScalars(ev)
	s.n++
	if s.div == nil && s.CheckEvery > 0 && s.n%s.CheckEvery == 0 {
		s.compareDeep(ev)
	}
}

// record latches the first divergence.
func (s *Shadow) record(ev trace.Event, field, fast, ref string) {
	if s.div != nil {
		return
	}
	s.div = &Divergence{Index: s.n, Event: ev, Field: field, Fast: fast, Ref: ref}
}

// check latches a divergence when two structural values differ. It boxes
// and reflects, so it is reserved for the periodic deep comparison; the
// per-event path compares typed values directly.
func (s *Shadow) check(ev trace.Event, field string, fast, ref interface{}) {
	if s.div != nil {
		return
	}
	if !reflect.DeepEqual(fast, ref) {
		s.record(ev, field, fmt.Sprintf("%+v", fast), fmt.Sprintf("%+v", ref))
	}
}

// mismatch renders both sides of a failed typed comparison. Only the
// divergence path pays for the formatting.
func (s *Shadow) mismatch(ev trace.Event, field string, fast, ref interface{}) bool {
	s.record(ev, field, fmt.Sprintf("%+v", fast), fmt.Sprintf("%+v", ref))
	return false
}

// compareScalars is the cheap per-event check: all accounting scalars
// (floats compared bit-exactly) and every unit's statistics counters. It
// runs after every single emitter call, so everything here is a direct
// typed comparison — no interface boxing, no reflection, no allocation on
// the match path.
func (s *Shadow) compareScalars(ev trace.Event) {
	p := s.fast.Probe()
	r := s.ref
	ok := true
	switch {
	case p.Cycles != r.cycles:
		ok = s.mismatch(ev, "cycles", p.Cycles, r.cycles)
	case p.OnCycles != r.onCycles:
		ok = s.mismatch(ev, "onCycles", p.OnCycles, r.onCycles)
	case p.LastOnStamp != r.lastOnStamp:
		ok = s.mismatch(ev, "lastOnStamp", p.LastOnStamp, r.lastOnStamp)
	case p.MaxCompletion != r.maxCompletion:
		ok = s.mismatch(ev, "maxCompletion", p.MaxCompletion, r.maxCompletion)
	case p.Instructions != r.instructions:
		ok = s.mismatch(ev, "instructions", p.Instructions, r.instructions)
	case p.MemOps != r.memOps:
		ok = s.mismatch(ev, "memOps", p.MemOps, r.memOps)
	case p.Markers != r.markers:
		ok = s.mismatch(ev, "markers", p.Markers, r.markers)
	case p.Bypasses != r.bypasses:
		ok = s.mismatch(ev, "bypasses", p.Bypasses, r.bypasses)
	case p.Prefetches != r.prefetches:
		ok = s.mismatch(ev, "prefetches", p.Prefetches, r.prefetches)
	case p.L2Misses != r.l2Misses:
		ok = s.mismatch(ev, "l2Misses", p.L2Misses, r.l2Misses)
	case p.HWOn != r.hwOn:
		ok = s.mismatch(ev, "hwOn", p.HWOn, r.hwOn)
	case p.OutstandingN != len(r.outstanding):
		ok = s.mismatch(ev, "outstanding count", p.OutstandingN, len(r.outstanding))
	}
	if !ok {
		return
	}
	c := s.fast.Components()
	switch {
	case c.L1.Stats != r.l1.stats:
		s.mismatch(ev, "L1 stats", c.L1.Stats, r.l1.stats)
	case c.L2.Stats != r.l2.stats:
		s.mismatch(ev, "L2 stats", c.L2.Stats, r.l2.stats)
	case c.TLB.Stats != r.dtlb.stats:
		s.mismatch(ev, "TLB stats", c.TLB.Stats, r.dtlb.stats)
	case c.MAT != nil && c.MAT.Stats != r.mat.stats:
		s.mismatch(ev, "MAT stats", c.MAT.Stats, r.mat.stats)
	case c.SLDT != nil && c.SLDT.Stats != r.sldt.stats:
		s.mismatch(ev, "SLDT stats", c.SLDT.Stats, r.sldt.stats)
	case c.Buffer != nil && c.Buffer.Stats != r.buf.stats:
		s.mismatch(ev, "buffer stats", c.Buffer.Stats, r.buf.stats)
	case c.VC1 != nil && c.VC1.Stats != r.vc1.stats:
		s.mismatch(ev, "L1 victim stats", c.VC1.Stats, r.vc1.stats)
	case c.VC2 != nil && c.VC2.Stats != r.vc2.stats:
		s.mismatch(ev, "L2 victim stats", c.VC2.Stats, r.vc2.stats)
	case c.Cls1 != nil && c.Cls1.Stats != r.cls1.stats:
		s.mismatch(ev, "L1 classify stats", c.Cls1.Stats, r.cls1.stats)
	case c.Cls2 != nil && c.Cls2.Stats != r.cls2.stats:
		s.mismatch(ev, "L2 classify stats", c.Cls2.Stats, r.cls2.stats)
	}
	if s.div != nil || r.l1.memo == nil {
		return
	}
	m1, _ := c.L1.WayMemoCounters()
	m2, _ := c.L2.WayMemoCounters()
	switch {
	case m1 != r.l1.memo.stats:
		s.mismatch(ev, "L1 way-memo stats", m1, r.l1.memo.stats)
	case m2 != r.l2.memo.stats:
		s.mismatch(ev, "L2 way-memo stats", m2, r.l2.memo.stats)
	}
}

// compareDeep is the full structural check: complete recency-ordered
// content of every stateful unit, the in-flight miss slots, and the
// reference units' own conservation invariants.
func (s *Shadow) compareDeep(ev trace.Event) {
	if s.div != nil {
		return
	}
	c := s.fast.Components()
	r := s.ref
	s.check(ev, "L1 content", c.L1.SnapshotSets(), r.l1.snapshot())
	s.check(ev, "L2 content", c.L2.SnapshotSets(), r.l2.snapshot())
	s.check(ev, "TLB content", c.TLB.SnapshotSets(), r.dtlb.snapshot())
	s.check(ev, "outstanding misses", s.fast.Outstanding(), append([]float64(nil), r.outstanding...))
	if c.MAT != nil {
		s.check(ev, "MAT content", c.MAT.Snapshot(), r.mat.snapshot())
		s.check(ev, "MAT sinceAge", c.MAT.SinceAge(), r.mat.sinceAge)
		s.check(ev, "SLDT content", c.SLDT.Snapshot(), r.sldt.snapshot())
		s.check(ev, "buffer content", c.Buffer.Snapshot(), r.buf.fa.snapshot())
	}
	if c.VC1 != nil {
		s.check(ev, "L1 victim content", c.VC1.Snapshot(), r.vc1.fa.snapshot())
		s.check(ev, "L2 victim content", c.VC2.Snapshot(), r.vc2.fa.snapshot())
	}
	if r.l1.memo != nil {
		s.check(ev, "L1 way-memo content", c.L1.SnapshotWayMemo(), r.l1.memo.snapshot())
		s.check(ev, "L2 way-memo content", c.L2.SnapshotWayMemo(), r.l2.memo.snapshot())
		// The reference memo has no way numbers, so the engine's recorded
		// ways are validated by its own soundness check: every live memo
		// entry must point at the resident way of its block.
		if err := c.L1.CheckWayMemo(); err != nil {
			s.record(ev, "L1 way-memo soundness", err.Error(), "(reference state matches)")
		}
		if err := c.L2.CheckWayMemo(); err != nil {
			s.record(ev, "L2 way-memo soundness", err.Error(), "(reference state matches)")
		}
	}
	if lines1, hist1, ok := c.L1.SnapshotEHC(); ok {
		s.check(ev, "L1 EHC lines", lines1, r.l1.snapshotEHC())
		s.check(ev, "L1 EHC history", hist1, r.l1.ehc.snapshot())
		lines2, hist2, _ := c.L2.SnapshotEHC()
		s.check(ev, "L2 EHC lines", lines2, r.l2.snapshotEHC())
		s.check(ev, "L2 EHC history", hist2, r.l2.ehc.snapshot())
	}
	if s.div != nil {
		return
	}
	if err := s.selfCheck(); err != nil {
		s.record(ev, "reference invariant", "(engine state matches)", err.Error())
	}
}

// selfCheck runs the reference units' internal invariants: write-back
// conservation on both cache levels, insert/take/evict conservation on
// every fully-associative store, MAT counter saturation and aging bounds.
func (s *Shadow) selfCheck() error {
	r := s.ref
	if err := r.l1.conservation(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := r.l2.conservation(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if r.vc1 != nil {
		if err := r.vc1.fa.conservation(); err != nil {
			return fmt.Errorf("L1 victim: %w", err)
		}
		if err := r.vc2.fa.conservation(); err != nil {
			return fmt.Errorf("L2 victim: %w", err)
		}
	}
	if r.buf != nil {
		if err := r.buf.fa.conservation(); err != nil {
			return fmt.Errorf("bypass buffer: %w", err)
		}
	}
	if r.l1.memo != nil {
		if err := r.l1.memo.conservation(); err != nil {
			return fmt.Errorf("L1 way memo: %w", err)
		}
		if err := r.l2.memo.conservation(); err != nil {
			return fmt.Errorf("L2 way memo: %w", err)
		}
	}
	if r.mat != nil {
		if err := CheckMATBounds(r.mat.snapshot(), r.mat.cfg); err != nil {
			return err
		}
		if r.mat.cfg.AgePeriod > 0 && r.mat.sinceAge >= r.mat.cfg.AgePeriod {
			return fmt.Errorf("MAT sinceAge %d not below age period %d", r.mat.sinceAge, r.mat.cfg.AgePeriod)
		}
	}
	return nil
}
