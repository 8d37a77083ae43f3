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
// states the guarantee; TestParallelSweepMatchesSerial enforces it). Each
// worker holds one core.Runner, so a sweep builds one machine per worker and
// resets it between runs. There is one entry point per table or figure,
// and each takes a Plan: the worker count, a shared trace cache and an
// option adjustment, whose zero values are the defaults.
package experiments

import (
	"selcache/internal/core"
	"selcache/internal/parallel"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// Plan says how a driver runs its cells. The zero Plan is the default: one
// worker per CPU, a private trace cache and no option adjustment.
type Plan struct {
	// Workers is the worker count (< 1: one per CPU; parallel.Serial: a
	// plain loop on the calling goroutine).
	Workers int
	// Cache shares recorded streams across drivers (cmd/experiments runs
	// Table 2, the figures and Table 3 on one). nil means a private cache
	// per call, in which each distinct stream is still recorded once.
	Cache *TraceCache
	// Mod adjusts every cell's options (nil: none).
	Mod OptionMod
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
// versions under o, replaying streams from tc (nil: record privately) on
// one machine reset between versions. It is the unit the selcached service
// builds on: a cell shares no mutable state beyond the trace cache, so
// RunRow is safe to execute on any worker, and its RunStats are
// byte-identical to a live core.Run (modulo the documented WallNanos
// nondeterminism).
func RunRow(w workloads.Workload, o core.Options, tc *TraceCache) Row {
	return runRow(w, o, tc.orNew(), new(core.Runner))
}

// runRow is RunRow on the worker's runner; tc must be non-nil.
func runRow(w workloads.Workload, o core.Options, tc *TraceCache, r *core.Runner) Row {
	row := Row{Benchmark: w.Name, Class: w.Class}
	var base core.Result
	for _, v := range core.Versions() {
		res := r.Replay(tc.Get(w, v, o), v, o)
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
// through all five versions under o, adjusted by p.Mod.
func RunSweep(o core.Options, ws []workloads.Workload, p Plan) Sweep {
	if ws == nil {
		ws = workloads.All()
	}
	p.Mod.apply(&o)
	tc := p.Cache.orNew()
	rows := parallel.MapWith(p.Workers, len(ws), func(r *core.Runner, i int) Row {
		return runRow(ws[i], o, tc, r)
	})
	return Assemble(o, rows)
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

// RunFigure reproduces one of Figures 4–9 (cache bypassing as the hardware
// mechanism, per Section 5.1). The figures differ only in machine
// configuration, so one shared p.Cache lets all six replay the same 39
// recorded streams.
func RunFigure(f FigureID, p Plan) Sweep {
	o := core.DefaultOptions()
	o.Machine = f.Config()
	o.Mechanism = sim.HWBypass
	return RunSweep(o, nil, p)
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
// quotes in Section 4.2 (53–72%). Its base streams are the ones the figures
// and Table 3 replay, so a shared p.Cache records them once.
func Table2(p Plan) []Table2Row {
	o := core.DefaultOptions()
	o.Classify = true
	p.Mod.apply(&o)
	ws := workloads.All()
	tc := p.Cache.orNew()
	return parallel.MapWith(p.Workers, len(ws), func(r *core.Runner, i int) Table2Row {
		w := ws[i]
		s := r.Replay(tc.Get(w, core.Base, o), core.Base, o).Sim
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
// configuration and both hardware mechanisms. It also returns the
// underlying sweeps, interleaved bypass/victim per configuration
// (throughput reporting and tests).
func Table3(p Plan) ([]Table3Row, []Sweep) {
	return table3(p, nil)
}

// table3 flattens the full (configuration × mechanism × benchmark) space —
// 6 × 2 × 13 = 156 cells by default — into one fan-out, so the pool stays
// saturated across sweep boundaries instead of draining twelve times.
// Every cell replays cached streams: the 780 version runs behind the
// default table reduce to 39 recordings (13 benchmarks × 3 stream classes;
// nothing in the key varies across configurations or mechanisms). ws
// overrides the benchmark list for tests.
func table3(p Plan, ws []workloads.Workload) ([]Table3Row, []Sweep) {
	if ws == nil {
		ws = workloads.All()
	}
	tc := p.Cache.orNew()
	cfgs := sim.ExperimentConfigs()
	// Sweep order matches the serial reference: per configuration, bypass
	// then victim.
	opts := make([]core.Options, 0, 2*len(cfgs))
	for _, cfg := range cfgs {
		for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
			o := core.DefaultOptions()
			o.Machine = cfg
			o.Mechanism = mech
			p.Mod.apply(&o)
			opts = append(opts, o)
		}
	}

	rows := parallel.MapWith(p.Workers, len(opts)*len(ws), func(r *core.Runner, i int) Row {
		return runRow(ws[i%len(ws)], opts[i/len(ws)], tc, r)
	})

	sweeps := make([]Sweep, len(opts))
	for j := range opts {
		sweeps[j] = Assemble(opts[j], rows[j*len(ws):(j+1)*len(ws)])
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
