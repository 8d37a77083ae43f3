// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5): the benchmark-characteristics table (Table 2),
// the per-benchmark improvement figures for the six machine configurations
// (Figures 4–9), the average-improvement summary across both hardware
// mechanisms (Table 3), and the ablation studies DESIGN.md calls out.
//
// Every sweep decomposes into independent cells — one benchmark through all
// five versions under one configuration and mechanism — that fan out across
// the internal/parallel worker pool. Results are assembled in cell order,
// so the output is byte-identical to a serial run (docs/PERFORMANCE.md
// states the guarantee; TestParallelSweepMatchesSerial enforces it). The
// exported entry points come in pairs: the historical name uses the default
// pool, and a *Workers variant takes an explicit worker count, with
// parallel.Serial as the no-goroutine fallback.
package experiments

import (
	"selcache/internal/core"
	"selcache/internal/parallel"
	"selcache/internal/sim"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

// blockArena builds the per-worker arena of reusable blocks the sweeps hand
// to core.ReplayTraceBuffered: one block per worker, padded and
// first-touched on that worker (parallel.Arena), so replay never allocates
// per cell and workers never false-share block state.
func blockArena(workers int) *parallel.Arena[trace.Block] {
	return parallel.NewArena(workers, func() *trace.Block {
		return trace.NewBlock(trace.DefaultBlockEvents)
	})
}

// Row holds one benchmark's results across the simulated versions.
type Row struct {
	Benchmark string
	Class     workloads.Class
	// Cycles and Improv are indexed by core.Version (fixed-size arrays:
	// every run fills all five versions, and the flat layout keeps sweep
	// assembly allocation-free). Improvement is the percentage cycle
	// reduction versus the base run.
	Cycles [core.NumVersions]uint64
	Improv [core.NumVersions]float64
	// Stats keeps the full per-version simulator statistics for detailed
	// reporting.
	Stats [core.NumVersions]sim.RunStats
}

// Sweep is one figure's worth of data: every benchmark through every
// version under one machine configuration and hardware mechanism.
type Sweep struct {
	Config    sim.Config
	Mechanism sim.HWKind
	Rows      []Row
	// Avg holds the arithmetic-mean improvement per version; ClassAvg
	// splits it by benchmark class. ClassCount records how many of Rows
	// fall in each class — a zero entry means the class is absent and its
	// ClassAvg row is meaningless.
	Avg        [core.NumVersions]float64
	ClassAvg   [workloads.NumClasses][core.NumVersions]float64
	ClassCount [workloads.NumClasses]int
}

// Events sums the simulated instruction events across every run of the
// sweep (throughput reporting).
func (sw Sweep) Events() uint64 {
	var n uint64
	for i := range sw.Rows {
		for v := range sw.Rows[i].Stats {
			n += sw.Rows[i].Stats[v].Instructions
		}
	}
	return n
}

// RunRow executes one sweep cell: a single benchmark through all five
// versions under o, replaying streams from tc (nil: record privately).
// It is the unit the batch drivers and the selcached service both build
// on — a cell shares no mutable state beyond the trace cache, so RunRow
// is safe to execute on any worker, and its RunStats are byte-identical
// to a live core.Run (modulo the documented WallNanos nondeterminism).
func RunRow(w workloads.Workload, o core.Options, tc *TraceCache) Row {
	return runRow(w, o, tc.orNew(), nil)
}

// runRow is RunRow's internal form: tc must be non-nil. blk is the worker's
// reusable decode block (nil: allocate per replay).
func runRow(w workloads.Workload, o core.Options, tc *TraceCache, blk *trace.Block) Row {
	row := Row{Benchmark: w.Name, Class: w.Class}
	var base core.Result
	for _, v := range core.Versions() {
		res := core.ReplayTraceBuffered(tc.Get(w, v, o), v, o, blk)
		if v == core.Base {
			base = res
		}
		row.Cycles[v] = res.Sim.Cycles
		row.Improv[v] = core.Improvement(base, res)
		row.Stats[v] = res.Sim
	}
	return row
}

// Assemble computes the sweep aggregates (overall and per-class average
// improvement) from already-executed rows. Accumulation runs in row
// order, so float summation matches the serial reference exactly; callers
// assembling cells they ran out of order (the selcached sweep endpoint)
// must sort rows back into request order first.
func Assemble(o core.Options, rows []Row) Sweep {
	return assemble(o, rows)
}

// assemble computes the sweep aggregates from rows. Accumulation runs in
// row order, so float summation matches the serial reference exactly.
func assemble(o core.Options, rows []Row) Sweep {
	sw := Sweep{Config: o.Machine, Mechanism: o.Mechanism, Rows: rows}
	for i := range rows {
		row := &rows[i]
		sw.ClassCount[row.Class]++
		for _, v := range core.Versions() {
			sw.Avg[v] += row.Improv[v]
			sw.ClassAvg[row.Class][v] += row.Improv[v]
		}
	}
	if len(rows) > 0 {
		inv := 1 / float64(len(rows))
		for v := range sw.Avg {
			sw.Avg[v] *= inv
		}
		for c := range sw.ClassAvg {
			if sw.ClassCount[c] == 0 {
				continue
			}
			for v := range sw.ClassAvg[c] {
				sw.ClassAvg[c][v] /= float64(sw.ClassCount[c])
			}
		}
	}
	return sw
}

// RunSweep simulates the given workloads (paper order when ws is nil)
// through all five versions under o, using the default worker pool.
func RunSweep(o core.Options, ws []workloads.Workload) Sweep {
	return RunSweepWorkers(o, ws, 0)
}

// RunSweepWorkers is RunSweep with an explicit worker count (< 1: one per
// CPU; parallel.Serial: plain loop on the calling goroutine).
func RunSweepWorkers(o core.Options, ws []workloads.Workload, workers int) Sweep {
	return RunSweepCached(o, ws, workers, nil)
}

// RunSweepCached is RunSweepWorkers with an explicit trace cache, so a
// caller running several sweeps (cmd/experiments, Table3) shares recorded
// streams across them. A nil cache means a private per-sweep one: each
// distinct stream is still interpreted only once within the sweep.
func RunSweepCached(o core.Options, ws []workloads.Workload, workers int, tc *TraceCache) Sweep {
	if ws == nil {
		ws = workloads.All()
	}
	tc = tc.orNew()
	blocks := blockArena(workers)
	rows := parallel.MapWorkers(workers, len(ws), func(wk, i int) Row {
		return runRow(ws[i], o, tc, blocks.Get(wk))
	})
	return assemble(o, rows)
}

// FigureID identifies one of the paper's per-benchmark figures.
type FigureID int

const (
	// Figure4 is the base configuration.
	Figure4 FigureID = iota
	// Figure5 is the 200-cycle memory latency configuration.
	Figure5
	// Figure6 is the 1 MB L2 configuration.
	Figure6
	// Figure7 is the 64 KB L1 configuration.
	Figure7
	// Figure8 is the 8-way L2 configuration.
	Figure8
	// Figure9 is the 8-way L1 configuration.
	Figure9
)

// Config returns the machine configuration the figure uses.
func (f FigureID) Config() sim.Config {
	return sim.ExperimentConfigs()[int(f)]
}

// Name returns the paper's figure caption.
func (f FigureID) Name() string {
	switch f {
	case Figure4:
		return "Figure 4: Base configuration"
	case Figure5:
		return "Figure 5: Larger memory latency (200 cycles)"
	case Figure6:
		return "Figure 6: Larger L2 size (1 MB)"
	case Figure7:
		return "Figure 7: Larger L1 size (64 KB)"
	case Figure8:
		return "Figure 8: Higher L2 associativity (8)"
	case Figure9:
		return "Figure 9: Higher L1 associativity (8)"
	default:
		return "unknown figure"
	}
}

// Figures lists all six.
func Figures() []FigureID {
	return []FigureID{Figure4, Figure5, Figure6, Figure7, Figure8, Figure9}
}

// RunFigure reproduces one of Figures 4–9 (cache bypassing as the hardware
// mechanism, per Section 5.1).
func RunFigure(f FigureID) Sweep {
	return RunFigureWorkers(f, 0)
}

// RunFigureWorkers is RunFigure with an explicit worker count.
func RunFigureWorkers(f FigureID, workers int) Sweep {
	return RunFigureCached(f, workers, nil)
}

// RunFigureCached is RunFigureWorkers with a shared trace cache. Figures
// 4–9 differ only in machine configuration, so one cache lets all six
// replay the same 39 recorded streams.
func RunFigureCached(f FigureID, workers int, tc *TraceCache) Sweep {
	return RunFigureCachedMod(f, workers, tc, nil)
}

// OptionMod adjusts the options of every cell in a driver-level run; the
// machine-axis flags of cmd/experiments (-policy, -waymemo, -energy)
// thread through it. nil means no adjustment. Mods must only touch
// machine-level knobs (replacement policy, way memo, energy, mechanism
// tables) — the recorded event streams do not depend on those, so the
// trace cache stays shared across modded and unmodded runs.
type OptionMod func(*core.Options)

func (m OptionMod) apply(o *core.Options) {
	if m != nil {
		m(o)
	}
}

// RunFigureCachedMod is RunFigureCached with an option adjustment.
func RunFigureCachedMod(f FigureID, workers int, tc *TraceCache, mod OptionMod) Sweep {
	o := core.DefaultOptions()
	o.Machine = f.Config()
	o.Mechanism = sim.HWBypass
	mod.apply(&o)
	return RunSweepCached(o, nil, workers, tc)
}

// Table2Row holds one benchmark's characteristics under the base machine
// (instructions executed and L1/L2 miss rates of the base run) — the
// paper's Table 2.
type Table2Row struct {
	Benchmark    string
	Class        workloads.Class
	Instructions uint64
	L1MissPct    float64
	L2MissPct    float64
	ConflictPct  float64 // share of L1 misses that are conflict misses
}

// Table2 reproduces the benchmark-characteristics table. Classification of
// misses is enabled, so it also reports the conflict-miss share the paper
// quotes in Section 4.2 (53–72%).
func Table2() []Table2Row {
	return Table2Workers(0)
}

// Table2Workers is Table2 with an explicit worker count.
func Table2Workers(workers int) []Table2Row {
	return Table2Cached(workers, nil)
}

// Table2Cached is Table2Workers with a shared trace cache: the base
// streams it records are the same ones the figures and Table 3 replay.
func Table2Cached(workers int, tc *TraceCache) []Table2Row {
	return Table2CachedMod(workers, tc, nil)
}

// Table2CachedMod is Table2Cached with an option adjustment.
func Table2CachedMod(workers int, tc *TraceCache, mod OptionMod) []Table2Row {
	o := core.DefaultOptions()
	o.Classify = true
	mod.apply(&o)
	ws := workloads.All()
	tc = tc.orNew()
	blocks := blockArena(workers)
	return parallel.MapWorkers(workers, len(ws), func(wk, i int) Table2Row {
		w := ws[i]
		res := core.ReplayTraceBuffered(tc.Get(w, core.Base, o), core.Base, o, blocks.Get(wk))
		s := res.Sim
		row := Table2Row{
			Benchmark:    w.Name,
			Class:        w.Class,
			Instructions: s.Instructions,
			L1MissPct:    100 * s.L1.MissRate(),
			L2MissPct:    100 * s.L2.MissRate(),
		}
		if t := s.L1Class.Total(); t > 0 {
			row.ConflictPct = 100 * float64(s.L1Class.Conflict) / float64(t)
		}
		return row
	})
}

// Table3Row is one machine configuration's average improvements across the
// seven scheme columns of the paper's Table 3.
type Table3Row struct {
	Config          string
	PureSoftware    float64
	CacheBypass     float64
	CombinedBypass  float64
	SelectiveBypass float64
	VictimCache     float64
	CombinedVictim  float64
	SelectiveVictim float64
}

// Table3 reproduces the average-improvement summary for every experiment
// configuration and both hardware mechanisms.
func Table3() []Table3Row {
	return Table3Workers(0)
}

// Table3Workers is Table3 with an explicit worker count.
func Table3Workers(workers int) []Table3Row {
	rows, _ := Table3Detail(workers)
	return rows
}

// Table3Detail additionally returns the underlying sweeps, interleaved
// bypass/victim per configuration (throughput reporting and tests).
func Table3Detail(workers int) ([]Table3Row, []Sweep) {
	return Table3Cached(workers, nil)
}

// Table3Cached is Table3Detail with a shared trace cache.
func Table3Cached(workers int, tc *TraceCache) ([]Table3Row, []Sweep) {
	return table3Detail(workers, nil, tc, nil)
}

// Table3CachedMod is Table3Cached with an option adjustment.
func Table3CachedMod(workers int, tc *TraceCache, mod OptionMod) ([]Table3Row, []Sweep) {
	return table3Detail(workers, nil, tc, mod)
}

// table3Detail flattens the full (configuration × mechanism × benchmark)
// space — 6 × 2 × 13 = 156 cells by default — into one Map call, so the
// pool stays saturated across sweep boundaries instead of draining twelve
// times. Every cell replays cached streams: the 780 version runs behind
// the default table reduce to 39 recordings (13 benchmarks × 3 stream
// classes; nothing in the key varies across configurations or mechanisms).
// ws overrides the benchmark list for tests.
func table3Detail(workers int, ws []workloads.Workload, tc *TraceCache, mod OptionMod) ([]Table3Row, []Sweep) {
	if ws == nil {
		ws = workloads.All()
	}
	tc = tc.orNew()
	cfgs := sim.ExperimentConfigs()
	// Sweep order matches the serial reference: per configuration, bypass
	// then victim.
	opts := make([]core.Options, 0, 2*len(cfgs))
	for _, cfg := range cfgs {
		for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
			o := core.DefaultOptions()
			o.Machine = cfg
			o.Mechanism = mech
			mod.apply(&o)
			opts = append(opts, o)
		}
	}

	blocks := blockArena(workers)
	rows := parallel.MapWorkers(workers, len(opts)*len(ws), func(wk, i int) Row {
		return runRow(ws[i%len(ws)], opts[i/len(ws)], tc, blocks.Get(wk))
	})

	sweeps := make([]Sweep, len(opts))
	for j := range opts {
		sweeps[j] = assemble(opts[j], rows[j*len(ws):(j+1)*len(ws)])
	}
	out := make([]Table3Row, 0, len(cfgs))
	for ci, cfg := range cfgs {
		bp, vc := sweeps[2*ci], sweeps[2*ci+1]
		out = append(out, Table3Row{
			Config:          cfg.Name,
			PureSoftware:    bp.Avg[core.PureSoftware],
			CacheBypass:     bp.Avg[core.PureHardware],
			CombinedBypass:  bp.Avg[core.Combined],
			SelectiveBypass: bp.Avg[core.Selective],
			VictimCache:     vc.Avg[core.PureHardware],
			CombinedVictim:  vc.Avg[core.Combined],
			SelectiveVictim: vc.Avg[core.Selective],
		})
	}
	return out, sweeps
}
