package experiments

import (
	"selcache/internal/core"
	"selcache/internal/mat"
	"selcache/internal/parallel"
	"selcache/internal/regions"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// The ablations quantify the design decisions DESIGN.md calls out. Each
// returns per-benchmark selective (or hardware) improvements under the
// modified design next to the default.

// AblationRow pairs a benchmark with the improvement under the default and
// the ablated design.
type AblationRow struct {
	Benchmark string
	Default   float64
	Ablated   float64
}

func runPair(ws []workloads.Workload, v core.Version, def, abl core.Options) []AblationRow {
	if ws == nil {
		ws = workloads.All()
	}
	// One cache across the pair: the base stream is shared, and ablations
	// that only change the machine or mechanism parameters (not the
	// compiler or region configuration) replay the default stream too.
	tc := NewTraceCache("")
	return parallel.MapWith(0, len(ws), func(r *core.Runner, i int) AblationRow {
		w := ws[i]
		base := r.Replay(tc.Get(w, core.Base, def), core.Base, def)
		d := r.Replay(tc.Get(w, v, def), v, def)
		a := r.Replay(tc.Get(w, v, abl), v, abl)
		return AblationRow{
			Benchmark: w.Name,
			Default:   core.Improvement(base, d),
			Ablated:   core.Improvement(base, a),
		}
	})
}

// FrozenTables ablates decision 2: keep MAT/SLDT learning while the
// mechanism is deactivated instead of freezing them ("we simply ignore the
// mechanism"). Learning-while-off dilutes the hardware regions' history
// with software-region traffic.
func FrozenTables(ws []workloads.Workload) []AblationRow {
	def := core.DefaultOptions()
	abl := def
	abl.UpdateWhenOff = true
	return runPair(ws, core.Selective, def, abl)
}

// MarkerElimination ablates decision 4: skip the redundant ON/OFF
// elimination pass, leaving every naive region marker in place.
func MarkerElimination(ws []workloads.Workload) []AblationRow {
	def := core.DefaultOptions()
	abl := def
	abl.Regions.Eliminate = false
	return runPair(ws, core.Selective, def, abl)
}

// Propagation ablates decision 3: classify every loop from its own
// references instead of propagating innermost preferences outward.
func Propagation(ws []workloads.Workload) []AblationRow {
	def := core.DefaultOptions()
	abl := def
	abl.Regions.Propagate = false
	return runPair(ws, core.Selective, def, abl)
}

// BypassPolicy ablates decision 1: drop the absolute cold ceilings and
// decide bypassing purely by the relative frequency comparison.
func BypassPolicy(ws []workloads.Workload) []AblationRow {
	def := core.DefaultOptions()
	abl := def
	m := mat.DefaultConfig()
	m.ColdMax = 0
	m.ColdMaxSparse = 0
	abl.MAT = m
	return runPair(ws, core.Selective, def, abl)
}

// BlockingMemory ablates decision 5: a fully blocking memory system
// (Alpha = 1, MLP = 1) instead of the overlap model. Reported for the
// selective scheme; the orderings should survive, the magnitudes grow.
func BlockingMemory(ws []workloads.Workload) []AblationRow {
	def := core.DefaultOptions()
	abl := def
	abl.Machine.Alpha = 1
	abl.Machine.MLP = 1
	return runPair(ws, core.Selective, def, abl)
}

// ThresholdRow reports the selective improvement at one region-detection
// threshold.
type ThresholdRow struct {
	Threshold float64
	// AvgImprovement is the mean selective improvement over ws.
	AvgImprovement float64
	// Markers is the total dynamic marker count.
	Markers uint64
}

// ThresholdSweep reproduces the Section 4.1 claim that the 0.5 threshold is
// not critical (region reference mixes are 90–100% uniform, so any
// threshold between the extremes yields the same partition).
func ThresholdSweep(thresholds []float64, ws []workloads.Workload) []ThresholdRow {
	if ws == nil {
		ws = workloads.All()
	}
	if thresholds == nil {
		thresholds = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	// Flatten the (threshold × benchmark) space into one pool fan-out and
	// reduce per threshold in benchmark order (deterministic summation).
	type cell struct {
		improvement float64
		markers     uint64
	}
	tc := NewTraceCache("") // base streams shared across thresholds
	cells := parallel.MapWith(0, len(thresholds)*len(ws), func(r *core.Runner, i int) cell {
		o := core.DefaultOptions()
		o.Regions = regions.Config{Threshold: thresholds[i/len(ws)], Propagate: true, Eliminate: true}
		w := ws[i%len(ws)]
		base := r.Replay(tc.Get(w, core.Base, o), core.Base, o)
		sel := r.Replay(tc.Get(w, core.Selective, o), core.Selective, o)
		return cell{improvement: core.Improvement(base, sel), markers: sel.Sim.Markers}
	})
	out := make([]ThresholdRow, 0, len(thresholds))
	for ti, th := range thresholds {
		row := ThresholdRow{Threshold: th}
		for _, c := range cells[ti*len(ws) : (ti+1)*len(ws)] {
			row.AvgImprovement += c.improvement
			row.Markers += c.markers
		}
		row.AvgImprovement /= float64(len(ws))
		out = append(out, row)
	}
	return out
}

// VictimScenarioResult quantifies the Section 5.2 victim-cache story.
type VictimScenarioResult struct {
	// CombinedCycles and SelectiveCycles are the run times of the
	// always-on and gated victim mechanisms on the two-loop scenario.
	CombinedCycles  uint64
	SelectiveCycles uint64
	// CombinedVictimHits and SelectiveVictimHits count L1 victim-cache
	// hits: gating the small loop preserves the large loop's victims.
	CombinedVictimHits  uint64
	SelectiveVictimHits uint64
}

// VictimScenario builds the paper's illustrative nest — a large
// conflict-heavy loop alternating with a small loop — and measures the
// victim mechanism always-on versus gated off for the small loop.
func VictimScenario() VictimScenarioResult {
	build := core.Builder(victimScenarioProgram)
	o := core.DefaultOptions()
	o.Mechanism = sim.HWVictim
	var r core.Runner
	comb := r.Run(build, core.Combined, o)
	sel := r.Run(build, core.Selective, o)
	return VictimScenarioResult{
		CombinedCycles:      comb.Sim.Cycles,
		SelectiveCycles:     sel.Sim.Cycles,
		CombinedVictimHits:  comb.Sim.Victim1.Hits,
		SelectiveVictimHits: sel.Sim.Victim1.Hits,
	}
}

// CompilerPassRow reports the pure-software improvement with one compiler
// pass disabled, next to the full pipeline — the per-pass contribution
// study for the Section 3.2 optimizations.
type CompilerPassRow struct {
	Benchmark  string
	Full       float64
	NoIC       float64 // without loop interchange
	NoLayout   float64 // without data-layout selection
	NoTiling   float64 // without tiling
	NoUnrollSR float64 // without unroll-and-jam + scalar replacement
}

// CompilerPasses measures each pass's contribution on the given workloads
// (default: the regular benchmarks, where the compiler does its work).
func CompilerPasses(ws []workloads.Workload) []CompilerPassRow {
	if ws == nil {
		ws = workloads.ByClass(workloads.Regular)
	}
	variant := func(mod func(*core.Options)) core.Options {
		o := core.DefaultOptions()
		mod(&o)
		return o
	}
	full := core.DefaultOptions()
	noIC := variant(func(o *core.Options) { o.Opt.Interchange = false })
	noLayout := variant(func(o *core.Options) { o.Opt.Layout = false })
	noTiling := variant(func(o *core.Options) { o.Opt.Tiling = false })
	noUJ := variant(func(o *core.Options) {
		o.Opt.UnrollJam = false
		o.Opt.ScalarRepl = false
	})

	tc := NewTraceCache("")
	return parallel.MapWith(0, len(ws), func(r *core.Runner, i int) CompilerPassRow {
		w := ws[i]
		base := r.Replay(tc.Get(w, core.Base, full), core.Base, full)
		imp := func(o core.Options) float64 {
			return core.Improvement(base, r.Replay(tc.Get(w, core.PureSoftware, o), core.PureSoftware, o))
		}
		return CompilerPassRow{
			Benchmark:  w.Name,
			Full:       imp(full),
			NoIC:       imp(noIC),
			NoLayout:   imp(noLayout),
			NoTiling:   imp(noTiling),
			NoUnrollSR: imp(noUJ),
		}
	})
}

// DesignPointRow reports selective and pure-hardware improvements at one
// bypass-mechanism design point.
type DesignPointRow struct {
	Label     string
	PureHW    float64
	Selective float64
}

// MATDesignSweep explores the bypass mechanism's hardware design space —
// MAT capacity, macro-block size and bypass-buffer capacity — around the
// paper's configuration (4096 entries, 1 KB macro-blocks, 64 double
// words), in the spirit of Johnson & Hwu's own parameter studies. Averages
// are over ws (default: the irregular benchmarks, where the mechanism
// works).
func MATDesignSweep(ws []workloads.Workload) []DesignPointRow {
	if ws == nil {
		ws = workloads.ByClass(workloads.Irregular)
	}
	points := []struct {
		label string
		mod   func(*mat.Config)
	}{
		{"paper (4096x1KB, 64w buf)", func(*mat.Config) {}},
		{"MAT 1024 entries", func(c *mat.Config) { c.Entries = 1024 }},
		{"MAT 16384 entries", func(c *mat.Config) { c.Entries = 16384 }},
		{"macro-block 256B", func(c *mat.Config) { c.MacroBlock = 256 }},
		{"macro-block 4KB", func(c *mat.Config) { c.MacroBlock = 4096 }},
		{"buffer 16 words", func(c *mat.Config) { c.BufferWords = 16 }},
		{"buffer 256 words", func(c *mat.Config) { c.BufferWords = 256 }},
	}
	// Flatten (design point × benchmark) into one fan-out, then reduce per
	// point in benchmark order.
	type cell struct{ pureHW, selective float64 }
	// MAT parameters never enter the event stream, so every design point
	// replays the same base and selective captures.
	tc := NewTraceCache("")
	cells := parallel.MapWith(0, len(points)*len(ws), func(r *core.Runner, i int) cell {
		m := mat.DefaultConfig()
		points[i/len(ws)].mod(&m)
		o := core.DefaultOptions()
		o.MAT = m
		w := ws[i%len(ws)]
		base := r.Replay(tc.Get(w, core.Base, o), core.Base, o)
		return cell{
			pureHW:    core.Improvement(base, r.Replay(tc.Get(w, core.PureHardware, o), core.PureHardware, o)),
			selective: core.Improvement(base, r.Replay(tc.Get(w, core.Selective, o), core.Selective, o)),
		}
	})
	out := make([]DesignPointRow, 0, len(points))
	for pi, p := range points {
		row := DesignPointRow{Label: p.label}
		for _, c := range cells[pi*len(ws) : (pi+1)*len(ws)] {
			row.PureHW += c.pureHW
			row.Selective += c.selective
		}
		row.PureHW /= float64(len(ws))
		row.Selective /= float64(len(ws))
		out = append(out, row)
	}
	return out
}
