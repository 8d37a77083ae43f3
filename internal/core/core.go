// Package core is the public heart of the library: it assembles the
// paper's four simulated versions (pure hardware, pure software, combined,
// selective) from the compiler packages (regions, opt) and the machine
// simulator (sim), and runs a workload program through them.
//
// The flow mirrors Section 4.4 of the paper. The base code is what a
// workload's Build function returns. The pure-hardware version runs the
// base code with the hardware mechanism always on. The pure-software,
// combined and selective versions all run the same compiler-optimized code;
// the combined version additionally keeps the hardware mechanism on for the
// whole program, while the selective version inserts activate/deactivate
// instructions with the region-detection algorithm and lets them drive the
// mechanism at run time.
package core

import (
	"fmt"

	"selcache/internal/loopir"
	"selcache/internal/mat"
	"selcache/internal/mem"
	"selcache/internal/opt"
	"selcache/internal/regions"
	"selcache/internal/sim"
)

// Version identifies one of the paper's simulated schemes (Section 4.3),
// plus the base configuration all improvements are measured against.
type Version int

const (
	// Base is the unoptimized code on the unmodified machine.
	Base Version = iota
	// PureHardware runs the base code with the hardware mechanism always
	// active.
	PureHardware
	// PureSoftware runs the compiler-optimized code with no hardware
	// mechanism.
	PureSoftware
	// Combined runs the optimized code with the hardware mechanism
	// active for the entire duration of the program.
	Combined
	// Selective runs the optimized code with ON/OFF instructions
	// toggling the hardware mechanism per region (the paper's approach).
	Selective
)

// NumVersions is the number of simulated versions; Version values are
// contiguous in [0, NumVersions), so aggregation code can use fixed-size
// arrays indexed by Version instead of maps.
const NumVersions = int(Selective) + 1

// Versions lists all five in presentation order.
func Versions() []Version {
	return []Version{Base, PureHardware, PureSoftware, Combined, Selective}
}

// String returns the version name as used in the paper's figures.
func (v Version) String() string {
	switch v {
	case Base:
		return "base"
	case PureHardware:
		return "pure-hardware"
	case PureSoftware:
		return "pure-software"
	case Combined:
		return "combined"
	case Selective:
		return "selective"
	default:
		return fmt.Sprintf("Version(%d)", int(v))
	}
}

// Builder produces a fresh instance of a workload's base program. It must
// allocate new arrays on every call: the compiler mutates layouts and loop
// structure, so program instances are never shared between runs.
type Builder func() *loopir.Program

// Options configures a pipeline run.
type Options struct {
	// Machine is the simulated processor configuration.
	Machine sim.Config
	// Mechanism selects the hardware scheme used by the hardware-aware
	// versions (bypass or victim).
	Mechanism sim.HWKind
	// Regions configures region detection (selective version).
	Regions regions.Config
	// Opt configures the compiler. Zero BlockBytes/CacheBudget are
	// derived from the machine configuration.
	Opt opt.Options
	// Classify enables conflict/capacity/compulsory miss attribution.
	Classify bool
	// UpdateWhenOff is the ablation that keeps MAT/SLDT learning while
	// the mechanism is off.
	UpdateWhenOff bool
	// MAT overrides the bypass-mechanism parameters (zero value: the
	// defaults from mat.DefaultConfig).
	MAT mat.Config
	// Policy selects the cache replacement policy for every version
	// (zero: true LRU). Unlike Mechanism this is a machine property, so
	// it applies to base and pure-software runs too.
	Policy sim.PolicyKind
	// WayMemo enables way memoization on both cache levels; Energy
	// enables the per-run energy model. Both apply to every version.
	WayMemo bool
	Energy  bool
}

// DefaultOptions returns the configuration used throughout the paper's
// experiments: base machine, bypass mechanism, threshold 0.5, full
// compiler pipeline.
func DefaultOptions() Options {
	return Options{
		Machine:   sim.Base(),
		Mechanism: sim.HWBypass,
		Regions:   regions.Default(),
		Opt:       opt.Default(),
	}
}

func (o Options) normalized() Options {
	if o.Opt.BlockBytes == 0 {
		o.Opt.BlockBytes = o.Machine.L1.Block
	}
	if o.Opt.CacheBudget == 0 {
		o.Opt.CacheBudget = o.Machine.L1.Size / 2
	}
	return o
}

// Result is the outcome of one pipeline run.
type Result struct {
	Version Version
	Sim     sim.RunStats
	// Regions is populated for the selective version.
	Regions regions.Stats
	// Opt is populated for versions that run the compiler.
	Opt opt.Stats
	// Program is the (transformed) program that was simulated; useful
	// for inspection and tests. It must not be re-run against a machine
	// that matters, but re-running it against counters is harmless.
	Program *loopir.Program
}

// Prepare builds the program variant for a version without simulating it:
// region detection and/or compiler optimization are applied per the
// version's recipe. Exposed for tools and tests.
func Prepare(build Builder, v Version, o Options) (*loopir.Program, regions.Stats, opt.Stats) {
	o = o.normalized()
	prog := build()
	var rst regions.Stats
	var ost opt.Stats
	switch v {
	case Base, PureHardware:
		// Base code, untransformed.
	case PureSoftware, Combined:
		ost = opt.Optimize(prog, o.Opt)
	case Selective:
		// Region detection first (it analyzes the untransformed code),
		// then the compiler optimizes the software regions. This is the
		// order of Section 4.4: mark, lay out, transform.
		rst = regions.Detect(prog, o.Regions)
		ost = opt.Optimize(prog, o.Opt)
	}
	return prog, rst, ost
}

// SimOptions returns the machine-level options Run would configure for
// version v under o: which mechanism is wired up, whether it starts on,
// and whether markers drive it. Exposed for the differential oracle
// (internal/oracle, cmd/validate), which builds its machines out-of-band.
func SimOptions(v Version, o Options) sim.Options {
	return simOptions(v, o.normalized())
}

// simOptions maps a version to machine-level options.
func simOptions(v Version, o Options) sim.Options {
	so := sim.Options{
		Classify:      o.Classify,
		UpdateWhenOff: o.UpdateWhenOff,
		MAT:           o.MAT,
		Policy:        o.Policy,
		WayMemo:       o.WayMemo,
		Energy:        o.Energy,
	}
	switch v {
	case Base, PureSoftware:
		so.Mechanism = sim.HWNone
	case PureHardware, Combined:
		so.Mechanism = o.Mechanism
		so.InitiallyOn = true
		so.HonorMarkers = false
	case Selective:
		so.Mechanism = o.Mechanism
		so.InitiallyOn = false
		so.HonorMarkers = true
	}
	return so
}

// MechanismBlind reports whether version v simulates the same run under
// every hardware mechanism: its machine options do not depend on
// Options.Mechanism (Base and PureSoftware attach none), and no event
// stream depends on the mechanism either. A sweep that crosses versions
// with mechanisms runs such a version once per configuration.
func (v Version) MechanismBlind() bool {
	return simOptions(v, Options{Mechanism: sim.HWBypass}) == simOptions(v, Options{Mechanism: sim.HWVictim})
}

// Improvement returns the percentage cycle improvement of r over base:
// positive means r is faster.
func Improvement(base, r Result) float64 {
	if base.Sim.Cycles == 0 {
		return 0
	}
	return 100 * (float64(base.Sim.Cycles) - float64(r.Sim.Cycles)) / float64(base.Sim.Cycles)
}

// CountStats dry-runs a program against a counting emitter, returning the
// event totals without cache simulation (used for Table 2's instruction
// counts and by tests).
func CountStats(prog *loopir.Program) mem.CountingEmitter {
	var c mem.CountingEmitter
	loopir.Run(prog, &c)
	return c
}
