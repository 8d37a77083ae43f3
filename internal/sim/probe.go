package sim

import (
	"selcache/internal/cache"
	"selcache/internal/mat"
)

// This file exposes the machine's internal accounting and component units
// for the differential oracle (internal/oracle), which runs a naive
// reference machine in lockstep and cross-checks state after every event.
// Everything here is cold-path: a normal simulation run never calls it.

// WithDefaults returns the options with the zero-value fields filled in
// exactly as NewMachine fills them, so an external model can be configured
// identically.
func (o Options) WithDefaults() Options { return o.withDefaults() }

// Probe is a copy of the machine's scalar accounting state. Cycles and
// OnCycles are the raw float accumulators (RunStats only exposes them
// rounded), which lets a lockstep checker compare them bit-exactly.
type Probe struct {
	Cycles        float64
	OnCycles      float64
	LastOnStamp   float64
	MaxCompletion float64
	Instructions  uint64
	MemOps        uint64
	Markers       uint64
	Bypasses      uint64
	Prefetches    uint64
	L2Misses      uint64
	HWOn          bool
	OutstandingN  int
}

// Probe returns the current accounting state. It allocates nothing.
func (m *Machine) Probe() Probe {
	return Probe{
		Cycles:        m.cycles,
		OnCycles:      m.onCycles,
		LastOnStamp:   m.lastOnStamp,
		MaxCompletion: m.maxCompletion,
		Instructions:  m.instructions,
		MemOps:        m.memOps,
		Markers:       m.markers,
		Bypasses:      m.bypasses,
		Prefetches:    m.prefetches,
		L2Misses:      m.l2Misses,
		HWOn:          m.hwOn,
		OutstandingN:  len(m.outstanding),
	}
}

// Outstanding returns a copy of the in-flight miss completion times, in
// insertion order.
func (m *Machine) Outstanding() []float64 {
	return append([]float64(nil), m.outstanding...)
}

// Components bundles the machine's stateful units. Pointers may be nil
// when the corresponding mechanism is not configured (MAT/SLDT/Buffer for
// non-bypass runs, VC1/VC2 for non-victim runs, Cls1/Cls2 without
// classification).
type Components struct {
	L1, L2     *cache.Cache
	Cls1, Cls2 *cache.Classifier
	TLB        *cache.Cache
	MAT        *mat.Table
	SLDT       *mat.SLDT
	Buffer     *mat.Buffer
	VC1, VC2   *cache.Victim
}

// Components returns the machine's stateful units for state validation.
// Callers must treat them as read-only: mutating them corrupts the run.
func (m *Machine) Components() Components {
	return Components{
		L1: m.l1, L2: m.l2,
		Cls1: m.cls1, Cls2: m.cls2,
		TLB: m.dtlb,
		MAT: m.matT, SLDT: m.sldt, Buffer: m.buf,
		VC1: m.vc1, VC2: m.vc2,
	}
}
