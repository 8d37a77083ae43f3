// Package oracle is the differential testing harness for the optimized
// simulator: a deliberately naive, obviously-correct reference model of
// every stateful mechanism (set-associative LRU caches, the
// fully-associative victim caches and bypass buffer, MAT/SLDT, TLB, miss
// classifier), run in lockstep with the real sim.Machine and cross-checked
// after every emitted event. The reference trades every optimization in
// the engine — packed recency-order words, open-addressed hash indexes,
// cached reciprocals — for explicit recency-ordered slices, linear scans
// and plain division, so that any divergence between the two is a bug in
// one of them (and, given the reference's simplicity, almost always in the
// engine).
//
// Cycle accounting is compared bit-exactly. The engine multiplies by
// cached reciprocals (1/IssueWidth, 1/MemPorts) where the reference
// divides; those are equal under IEEE-754 only when the divisor is a power
// of two, so NewMachine rejects configurations where they are not. Every
// shipped configuration (sim.Base and its Table 3 variants) issues 4 wide
// with 2 memory ports, so this is not a restriction in practice. All other
// float arithmetic in the reference mirrors the engine's operation order
// and association exactly, which is what makes == comparison meaningful.
package oracle

import (
	"fmt"
	"math"

	"selcache/internal/cache"
	"selcache/internal/energy"
	"selcache/internal/mem"
	"selcache/internal/sim"
)

// Write-back bus-occupancy charges. Must match the unexported constants in
// internal/sim (machine.go); TestReferenceWritebackCharges pins them.
const (
	wbL1Occupancy = 0.5
	wbL2Occupancy = 1.5
)

// Machine is the reference simulator. It implements mem.Emitter with the
// same observable semantics as sim.Machine, built exclusively from the
// naive reference units in this package.
type Machine struct {
	cfg sim.Config
	opt sim.Options

	l1, l2     *refCache
	cls1, cls2 *refClassifier
	dtlb       *refTLB

	mat  *refMAT
	sldt *refSLDT
	buf  *refBuffer
	vc1  *refVictim
	vc2  *refVictim

	hwOn bool

	cycles        float64
	lastOnStamp   float64
	onCycles      float64
	instructions  uint64
	memOps        uint64
	markers       uint64
	bypasses      uint64
	prefetches    uint64
	l2Misses      uint64
	outstanding   []float64
	maxCompletion float64
}

// NewMachine builds a reference machine. It panics when IssueWidth or
// MemPorts is not a power of two: bit-exact cycle comparison against the
// reciprocal-multiplying engine is impossible then (see the package
// comment).
func NewMachine(cfg sim.Config, opt sim.Options) *Machine {
	if !powerOfTwo(cfg.IssueWidth) || !powerOfTwo(cfg.MemPorts) {
		panic(fmt.Sprintf(
			"oracle: IssueWidth %d / MemPorts %d must be powers of two for bit-exact comparison",
			cfg.IssueWidth, cfg.MemPorts))
	}
	opt = opt.WithDefaults()
	m := &Machine{
		cfg:  cfg,
		opt:  opt,
		l1:   newRefCache(cfg.L1),
		l2:   newRefCache(cfg.L2),
		dtlb: newRefTLB(cfg.TLB),
		hwOn: opt.InitiallyOn,
	}
	if opt.Classify {
		m.cls1 = newRefClassifier(cfg.L1)
		m.cls2 = newRefClassifier(cfg.L2)
	}
	switch opt.Mechanism {
	case sim.HWBypass:
		m.mat = newRefMAT(opt.MAT)
		m.sldt = newRefSLDT(opt.MAT, cfg.L1.Block)
		m.buf = newRefBuffer(opt.MAT.BufferWords)
	case sim.HWVictim:
		m.vc1 = newRefVictim(opt.L1VictimEntries, cfg.L1.Block)
		m.vc2 = newRefVictim(opt.L2VictimEntries, cfg.L2.Block)
	}
	if opt.Policy == sim.PolicyEHC {
		m.l1.ehc = newRefEHC(opt.EHCHistoryEntries)
		m.l2.ehc = newRefEHC(opt.EHCHistoryEntries)
	}
	if opt.WayMemo {
		m.l1.memo = newRefWayMemo(opt.L1MemoEntries)
		m.l2.memo = newRefWayMemo(opt.L2MemoEntries)
	}
	return m
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// l1Transfer and l2Transfer are the block-transfer bus occupancies. The
// engine truncates the byte ratio to an integer before converting, so the
// reference must too.
func (m *Machine) l1Transfer() float64 { return float64(m.cfg.L1.Block / m.cfg.BusBytes) }
func (m *Machine) l2Transfer() float64 { return float64(m.cfg.L2.Block / m.cfg.BusBytes) }

// Compute implements mem.Emitter.
func (m *Machine) Compute(n int) {
	m.instructions += uint64(n)
	m.cycles += float64(n) / float64(m.cfg.IssueWidth)
}

// Marker implements mem.Emitter.
func (m *Machine) Marker(on bool) {
	m.instructions++
	m.markers++
	m.cycles += 1 / float64(m.cfg.IssueWidth)
	if !m.opt.HonorMarkers {
		return
	}
	if on && !m.hwOn {
		m.lastOnStamp = m.cycles
	}
	if !on && m.hwOn {
		m.onCycles += m.cycles - m.lastOnStamp
	}
	m.hwOn = on
}

// stall charges a miss against the pipeline exactly as the engine does:
// retire completed misses, wait for the earliest (first-minimum) slot when
// all MLP slots are busy, serialize the Alpha fraction.
func (m *Machine) stall(lat float64) {
	now := m.cycles
	var live []float64
	for _, t := range m.outstanding {
		if t > now {
			live = append(live, t)
		}
	}
	m.outstanding = live
	if len(m.outstanding) >= m.cfg.MLP {
		ei := 0
		for i, t := range m.outstanding {
			if t < m.outstanding[ei] {
				ei = i
			}
		}
		if earliest := m.outstanding[ei]; earliest > now {
			now = earliest
		}
		m.outstanding = append(m.outstanding[:ei], m.outstanding[ei+1:]...)
	}
	completion := now + lat
	m.outstanding = append(m.outstanding, completion)
	if completion > m.maxCompletion {
		m.maxCompletion = completion
	}
	m.cycles = now + m.cfg.Alpha*lat
}

// Access implements mem.Emitter. The decision tree is a line-for-line
// mirror of sim.Machine.Access built on the reference units.
func (m *Machine) Access(addr mem.Addr, size uint8, write bool) {
	_ = size
	m.instructions++
	m.memOps++
	m.cycles += 1 / float64(m.cfg.MemPorts)

	if !m.dtlb.translate(addr) {
		m.stall(float64(m.cfg.TLBLat))
	}

	hw := m.hwOn && m.opt.Mechanism != sim.HWNone
	learn := hw || (m.opt.UpdateWhenOff && m.opt.Mechanism == sim.HWBypass)

	if m.buf != nil && hw {
		if m.buf.probe(addr, write) {
			m.cycles += m.cfg.Alpha * m.cfg.BufferHitLat
			return
		}
	}
	if m.mat != nil && learn {
		m.mat.touch(addr)
		m.sldt.observe(addr)
	}

	hit := m.l1.lookup(addr, write)
	if m.cls1 != nil {
		m.cls1.observe(addr, !hit)
	}
	if hit {
		return
	}

	if m.vc1 != nil && hw {
		if dirty, ok := m.vc1.probe(addr); ok {
			ev := m.l1.fill(addr, dirty || write)
			m.handleL1Evict(ev, hw)
			m.stall(float64(m.cfg.VictimSwapLat))
			return
		}
	}

	if m.mat != nil && hw {
		spatial := m.sldt.spatial(addr)
		victimBlock, vValid := m.l1.victimBlock(addr)
		if m.mat.shouldBypass(addr, victimBlock, vValid, spatial) {
			if spatial {
				lat := m.fetch(addr, false, hw)
				wbs := m.buf.fillSpan(addr, write, m.opt.MAT.FillSpanWords, m.cfg.L1.Block)
				m.cycles += float64(wbs) * wbL1Occupancy
				m.bypasses++
				m.stall(lat)
				return
			}
			lat := m.fetch(addr, true, hw)
			if m.buf.fill(addr, write) {
				m.cycles += wbL1Occupancy
			}
			m.bypasses++
			m.stall(lat)
			return
		}
		wasL2Miss := m.l2Misses
		lat := m.fetch(addr, false, hw)
		ev := m.l1.fill(addr, write)
		m.handleL1Evict(ev, hw)
		if spatial && (m.cfg.PrefetchFromL2 || m.l2Misses > wasL2Miss) {
			lat += m.spatialPrefetch(addr, hw)
		}
		m.stall(lat)
		return
	}

	lat := m.fetch(addr, false, hw)
	ev := m.l1.fill(addr, write)
	m.handleL1Evict(ev, hw)
	m.stall(lat)
}

func (m *Machine) fetch(addr mem.Addr, dword bool, hw bool) float64 {
	fill := m.l1Transfer()
	if dword {
		fill = 1
	}
	l2hit := m.l2.lookup(addr, false)
	if m.cls2 != nil {
		m.cls2.observe(addr, !l2hit)
	}
	if l2hit {
		return float64(m.cfg.L2Lat) + fill
	}
	m.l2Misses++
	if m.vc2 != nil && hw {
		if dirty, ok := m.vc2.probe(addr); ok {
			ev2 := m.l2.fill(addr, dirty)
			m.handleL2Evict(ev2, hw)
			return float64(m.cfg.L2Lat+m.cfg.VictimSwapLat) + fill
		}
	}
	ev2 := m.l2.fill(addr, false)
	m.handleL2Evict(ev2, hw)
	return float64(m.cfg.L2Lat+m.cfg.MemLat) + m.l2Transfer() + fill
}

func (m *Machine) spatialPrefetch(addr mem.Addr, hw bool) float64 {
	busy := 0
	for _, t := range m.outstanding {
		if t > m.cycles {
			busy++
		}
	}
	if busy >= m.cfg.MLP/2 {
		return 0
	}
	block := uint64(m.cfg.L1.Block)
	next := mem.Addr(uint64(addr)/block*block) ^ mem.Addr(m.cfg.L1.Block)
	if m.l1.contains(next) {
		return 0
	}
	m.prefetches++
	l2hit := m.l2.lookup(next, false)
	if m.cls2 != nil {
		m.cls2.observe(next, !l2hit)
	}
	extra := m.l1Transfer()
	if !l2hit {
		ev2 := m.l2.fill(next, false)
		m.handleL2Evict(ev2, hw)
		extra += m.l2Transfer()
	}
	ev := m.l1.fill(next, false)
	m.handleL1Evict(ev, hw)
	return extra
}

func (m *Machine) handleL1Evict(ev cache.Evicted, hw bool) {
	if !ev.Valid {
		return
	}
	if m.vc1 != nil && hw {
		disp := m.vc1.insert(ev.BlockAddr, ev.Dirty)
		if disp.Valid && disp.Dirty {
			m.writebackL2(disp.BlockAddr)
		}
		return
	}
	if ev.Dirty {
		m.writebackL2(ev.BlockAddr)
	}
}

func (m *Machine) handleL2Evict(ev cache.Evicted, hw bool) {
	if !ev.Valid {
		return
	}
	if m.vc2 != nil && hw {
		disp := m.vc2.insert(ev.BlockAddr, ev.Dirty)
		if disp.Valid && disp.Dirty {
			m.cycles += wbL2Occupancy
		}
		return
	}
	if ev.Dirty {
		m.cycles += wbL2Occupancy
	}
}

func (m *Machine) writebackL2(a mem.Addr) {
	ev2 := m.l2.fill(a, true)
	m.cycles += wbL1Occupancy
	if ev2.Valid && ev2.Dirty {
		m.cycles += wbL2Occupancy
	}
}

// Finish drains outstanding misses and returns the run's statistics, built
// the same way sim.Machine.Finish builds them (WallNanos stays zero).
func (m *Machine) Finish() sim.RunStats {
	if m.maxCompletion > m.cycles {
		m.cycles = m.maxCompletion
	}
	if m.hwOn && m.opt.HonorMarkers {
		m.onCycles += m.cycles - m.lastOnStamp
		m.lastOnStamp = m.cycles
	}
	st := sim.RunStats{
		Config:            m.cfg.Name,
		Mechanism:         m.opt.Mechanism,
		Cycles:            uint64(math.Ceil(m.cycles)),
		Instructions:      m.instructions,
		MemOps:            m.memOps,
		Markers:           m.markers,
		L1:                m.l1.stats,
		L2:                m.l2.stats,
		TLB:               sim.TLBStats{Accesses: m.dtlb.stats.Accesses, Misses: m.dtlb.stats.Misses},
		Bypasses:          m.bypasses,
		SpatialPrefetches: m.prefetches,
		OnCycles:          uint64(m.onCycles),
	}
	if !m.opt.HonorMarkers && m.hwOn {
		st.OnCycles = st.Cycles
	}
	if m.cls1 != nil {
		st.L1Class = m.cls1.stats
		st.L2Class = m.cls2.stats
	}
	if m.vc1 != nil {
		st.Victim1 = m.vc1.stats
		st.Victim2 = m.vc2.stats
	}
	if m.mat != nil {
		st.MAT = m.mat.stats
		st.MAT.SpatialYes = m.sldt.stats.SpatialYes
		st.MAT.SpatialNo = m.sldt.stats.SpatialNo
		st.Buffer = m.buf.stats
	}
	if m.opt.WayMemo {
		st.WayMemo1 = m.l1.memo.stats
		st.WayMemo2 = m.l2.memo.stats
	}
	if m.opt.Energy {
		// The model is the same pure function of the final counters the
		// engine applies; running it over the reference's independently
		// accumulated counters checks the whole counter pipeline.
		st.Energy = energy.Compute(energy.Default(), sim.EnergyInputs(m.cfg, st))
	}
	return st
}
