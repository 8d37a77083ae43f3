// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5): the benchmark-characteristics table (Table 2),
// the per-benchmark improvement figures for the six machine configurations
// (Figures 4–9), the average-improvement summary across both hardware
// mechanisms (Table 3), and the ablation studies DESIGN.md calls out.
//
// RunSweep, the figures and Table 3 are one sweep matrix, a sweep per
// configuration and mechanism, fanned out over internal/parallel one
// (configuration, workload) cell at a time. A cell runs the mechanism-blind
// Base and PureSoftware once: Table 3 is 624 runs, and cmd/experiments,
// printing the figures from Table 3's bypass sweeps, 637. Cells assemble in
// order, so output is byte-identical to a serial run (docs/PERFORMANCE.md).
// Each worker holds one core.Runner. Every entry point takes a Plan: worker
// count, shared trace cache and option adjustment, zero values the defaults.
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

// Events sums the instruction events simulated behind a sweep matrix's
// sweeps; adjacent sweeps of one configuration share mechanism-blind runs.
func Events(sweeps []Sweep) uint64 {
	var n uint64
	for i, sw := range sweeps {
		shared := i > 0 && sweeps[i-1].Config == sw.Config
		for _, row := range sw.Rows {
			for v, st := range row.Stats {
				if !shared || !core.Version(v).MechanismBlind() {
					n += st.Instructions
				}
			}
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
	var row [1]Row
	runCell(w, []core.Options{o}, tc.orNew(), new(core.Runner), row[:], 1)
	return row[0]
}

// runCell runs one (configuration, workload) cell on r: w under opts[j],
// one per mechanism, into rows[j*stride]. Mechanism-blind versions run
// under opts[0] only and later rows share them. tc must be non-nil.
func runCell(w workloads.Workload, opts []core.Options, tc *TraceCache, r *core.Runner, rows []Row, stride int) {
	for j, o := range opts {
		row := &rows[j*stride]
		*row = Row{Benchmark: w.Name, Class: w.Class}
		var base core.Result
		for _, v := range core.Versions() {
			res := core.Result{Sim: rows[0].Stats[v]} // the first row's, if shared
			if j == 0 || !v.MechanismBlind() {
				res = r.Replay(tc.Get(w, v, o), v, o)
			}
			if v == core.Base {
				base = res
			}
			row.Cycles[v] = res.Sim.Cycles
			row.Improv[v] = core.Improvement(base, res)
			row.Stats[v] = res.Sim
		}
	}
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
// through all five versions under o, adjusted by p.Mod: the sweep matrix's
// one-configuration, one-mechanism case.
func RunSweep(o core.Options, ws []workloads.Workload, p Plan) Sweep {
	return sweepMatrix(o, []sim.Config{o.Machine}, []sim.HWKind{o.Mechanism}, ws, p)[0]
}

// sweepMatrix runs a sweep of ws (nil: all) under o, adjusted by p.Mod,
// for each configuration and mechanism, in one fan-out of cells. The sweeps
// come back configuration-major, in mechs order within a configuration.
func sweepMatrix(o core.Options, cfgs []sim.Config, mechs []sim.HWKind, ws []workloads.Workload, p Plan) []Sweep {
	if ws == nil {
		ws = workloads.All()
	}
	tc := p.Cache.orNew()
	opts := make([]core.Options, 0, len(cfgs)*len(mechs))
	for _, cfg := range cfgs {
		for _, mech := range mechs {
			so := o
			so.Machine, so.Mechanism = cfg, mech
			p.Mod.apply(&so)
			opts = append(opts, so)
		}
	}
	// Cells run workload-major, so the heaviest (li's) are not in the tail;
	// rows are sweep-major, a cell's rows len(ws) apart.
	nm, rows := len(mechs), make([]Row, len(opts)*len(ws))
	parallel.MapWith(p.Workers, len(cfgs)*len(ws), func(r *core.Runner, i int) struct{} {
		k, c := i/len(cfgs), i%len(cfgs)
		runCell(ws[k], opts[c*nm:(c+1)*nm], tc, r, rows[c*nm*len(ws)+k:], len(ws))
		return struct{}{}
	})
	sweeps := make([]Sweep, len(opts))
	for j := range opts {
		sweeps[j] = Assemble(opts[j], rows[j*len(ws):(j+1)*len(ws)])
	}
	return sweeps
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
// trace cache stays shared — and must not read the mechanism (sweeps of
// one configuration share their mechanism-blind runs).
type OptionMod func(*core.Options)

func (m OptionMod) apply(o *core.Options) {
	if m != nil {
		m(o)
	}
}

// FigureSweeps reproduces Figures 4–9, indexed by FigureID: the sweep matrix
// under cache bypassing (Section 5.1), 390 runs; Table 3's bypass sweeps.
func FigureSweeps(p Plan) []Sweep {
	return sweepMatrix(core.DefaultOptions(), sim.ExperimentConfigs(), []sim.HWKind{sim.HWBypass}, nil, p)
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
// configuration and both hardware mechanisms, and the underlying sweeps,
// bypass then victim per configuration (the bypass ones are Figures 4–9).
func Table3(p Plan) ([]Table3Row, []Sweep) {
	return table3(p, nil)
}

// table3 is the sweep matrix over both mechanisms: 78 (configuration,
// workload) cells of 8 runs, 624 in all (637 with Table 2's), replaying 39
// recorded streams. ws overrides the benchmark list for tests.
func table3(p Plan, ws []workloads.Workload) ([]Table3Row, []Sweep) {
	cfgs := sim.ExperimentConfigs()
	sweeps := sweepMatrix(core.DefaultOptions(), cfgs, []sim.HWKind{sim.HWBypass, sim.HWVictim}, ws, p)
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
