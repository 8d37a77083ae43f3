// Package selcache is a from-scratch reproduction of "An Integrated
// Approach for Improving Cache Behavior" (Memik, Kandemir, Choudhary,
// Kadayif — DATE 2003): a selective hardware/compiler framework for data
// cache locality.
//
// The library contains everything the paper's evaluation needs, built on
// the Go standard library alone:
//
//   - a loop-nest intermediate representation with classified memory
//     references (internal/loopir);
//   - the region-detection algorithm that splits a program into
//     compiler-optimizable and hardware-managed regions and brackets the
//     latter with activate/deactivate instructions (internal/regions);
//   - a compiler with reuse-driven loop interchange, data-layout
//     selection, tiling and unroll-and-jam/scalar replacement
//     (internal/opt);
//   - a simulated machine in the mold of the paper's SimpleScalar setup:
//     two-level caches, TLB, an analytic out-of-order timing model, the
//     Johnson–Hwu MAT/SLDT cache-bypassing mechanism and Jouppi victim
//     caches (internal/sim, internal/mat, internal/cache, internal/tlb);
//   - the paper's 13 benchmarks re-implemented as simulated workloads,
//     including an in-memory relational substrate for the TPC queries
//     (internal/workloads, internal/db);
//   - experiment drivers regenerating every table and figure of the
//     evaluation section (internal/experiments).
//
// This package is the public facade: enough to run any benchmark through
// any of the paper's four schemes and reproduce the evaluation.
//
//	w, _ := selcache.BenchmarkByName("swim")
//	opts := selcache.DefaultOptions()
//	base := selcache.Run(w.Build, selcache.Base, opts)
//	sel := selcache.Run(w.Build, selcache.Selective, opts)
//	fmt.Printf("selective improves swim by %.1f%%\n",
//	    selcache.Improvement(base, sel))
package selcache

import (
	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Version is one of the paper's simulated schemes.
	Version = core.Version
	// Options configures a pipeline run (machine, mechanism, compiler).
	Options = core.Options
	// Result is the outcome of one simulated run.
	Result = core.Result
	// Builder produces a fresh base program for a workload.
	Builder = core.Builder
	// Workload is one of the paper's 13 benchmarks.
	Workload = workloads.Workload
	// MachineConfig is the simulated processor configuration.
	MachineConfig = sim.Config
	// HWKind selects the hardware mechanism (bypass or victim).
	HWKind = sim.HWKind
)

// The paper's simulated versions (Section 4.3).
const (
	Base         = core.Base
	PureHardware = core.PureHardware
	PureSoftware = core.PureSoftware
	Combined     = core.Combined
	Selective    = core.Selective
)

// Hardware mechanisms.
const (
	HWNone   = sim.HWNone
	HWBypass = sim.HWBypass
	HWVictim = sim.HWVictim
)

// DefaultOptions returns the configuration used throughout the paper's
// experiments: Table 1 machine, bypass mechanism, threshold 0.5, full
// compiler pipeline.
func DefaultOptions() Options { return core.DefaultOptions() }

// BaseMachine returns the paper's Table 1 processor configuration.
func BaseMachine() MachineConfig { return sim.Base() }

// Benchmarks returns the 13 paper benchmarks in Table 2 order.
func Benchmarks() []Workload { return workloads.All() }

// BenchmarkByName finds a benchmark ("swim", "tpc-d.q1", ...).
func BenchmarkByName(name string) (Workload, bool) { return workloads.ByName(name) }

// Run executes one version of a workload end to end.
func Run(build Builder, v Version, o Options) Result { return core.Run(build, v, o) }

// RunAll executes all five versions.
func RunAll(build Builder, o Options) []Result { return core.RunAll(build, o) }

// Improvement returns the percentage cycle improvement of r over base.
func Improvement(base, r Result) float64 { return core.Improvement(base, r) }

// Versions lists the five simulated versions in presentation order.
func Versions() []Version { return core.Versions() }

// Experiment re-exports: regenerate the paper's tables and figures.

// Table2 reproduces the benchmark-characteristics table.
func Table2() []experiments.Table2Row { return experiments.Table2(experiments.Plan{}) }

// Table3 reproduces the average-improvement summary.
func Table3() []experiments.Table3Row {
	rows, _ := experiments.Table3(experiments.Plan{})
	return rows
}

// Figures reproduces Figures 4–9, indexed by experiments.FigureID.
func Figures() []experiments.Sweep { return experiments.FigureSweeps(experiments.Plan{}) }
