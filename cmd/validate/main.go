// Command validate runs the differential oracle over the benchmark matrix:
// every workload × version × hardware mechanism cell is simulated twice, by
// the optimized engine and by the naive reference model (internal/oracle),
// in lockstep with cross-checking after every event. It also checks the
// compiled loopir interpreter against the tree-walking reference
// interpreter for every workload's stream classes, validates the marker
// protocol of selective streams, and cross-checks the batched block
// replay engine against the scalar path (recorded trace, both replays,
// RunStats compared field by field).
//
//	validate                 # full matrix: 13 workloads × 5 versions × both mechanisms
//	validate -short          # spot-check subset (one workload per class)
//	validate -configs all    # additionally sweep the paper's variant machine configs
//	validate -workloads swim,adi -mech victim
//	validate -policy ehc -waymemo on   # sweep the replacement-policy axis
//
// The replacement-policy and way-memoization axes default to the paper's
// configuration (LRU, memo off) on full runs; -short sweeps both axes so
// the smoke gate lockstep-checks EHC and the way memo against the naive
// reference. Way-memo cells also enable the energy model, so the pJ
// accounting is part of the RunStats equality check.
//
// Exit status is non-zero when any cell diverges; the first divergence of
// each failing cell is reported in the golden-trace-differ style (event
// ordinal, the event itself, the field, both sides' values).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"selcache/internal/core"
	"selcache/internal/loopir"
	"selcache/internal/oracle"
	"selcache/internal/parallel"
	"selcache/internal/sim"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "validate: %v\n", err)
		os.Exit(1)
	}
}

// shortWorkloads is the -short spot-check: one benchmark per access-pattern
// class, chosen among the cheaper streams of each.
var shortWorkloads = []string{"applu", "vpenta", "tpc-c"}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	short := fs.Bool("short", false, "spot-check one workload per class instead of all 13")
	list := fs.Bool("list", false, "list the cells that would run, without running them")
	workloadsFlag := fs.String("workloads", "", "comma-separated workload subset (default: all)")
	mech := fs.String("mech", "both", "hardware mechanism: bypass|victim|both")
	policy := fs.String("policy", "", "replacement policy: lru|ehc|both (default: lru, or both with -short)")
	waymemo := fs.String("waymemo", "", "way memoization: off|on|both (default: off, or both with -short)")
	configs := fs.String("configs", "base", "machine configurations: base|all (the paper's six)")
	checkEvery := fs.Uint64("checkevery", oracle.DefaultCheckEvery, "deep structural check period, in events")
	workers := fs.Int("workers", 0, "worker goroutines (0 = one per CPU)")
	verbose := fs.Bool("v", false, "print every cell, not just failures")
	if err := fs.Parse(args); err != nil {
		return err
	}

	selected, err := selectWorkloads(*workloadsFlag, *short)
	if err != nil {
		return err
	}
	mechs, err := selectMechanisms(*mech)
	if err != nil {
		return err
	}
	policies, err := selectPolicies(*policy, *short)
	if err != nil {
		return err
	}
	memos, err := selectMemos(*waymemo, *short)
	if err != nil {
		return err
	}
	var machines []sim.Config
	switch *configs {
	case "base":
		machines = []sim.Config{sim.Base()}
	case "all":
		machines = sim.ExperimentConfigs()
	default:
		return fmt.Errorf("unknown -configs %q (want base|all)", *configs)
	}

	cells := buildCells(selected, machines, mechs, policies, memos)
	if *list {
		for _, c := range cells {
			fmt.Fprintln(stdout, c.name())
		}
		return nil
	}

	fmt.Fprintf(stdout, "validate: %d lockstep cells + %d interpreter checks + %d batched-replay checks over %d workloads\n",
		len(cells), len(selected)*core.NumStreams, len(cells), len(selected))

	failures := 0
	report := func(name string, err error) {
		if err != nil {
			failures++
			fmt.Fprintf(stdout, "FAIL %s\n     %v\n", name, err)
		} else if *verbose {
			fmt.Fprintf(stdout, "ok   %s\n", name)
		}
	}

	// Interpreter equivalence first: it is cheap and a divergence there
	// would invalidate the machine cells' streams anyway.
	type interpResult struct {
		name string
		err  error
	}
	interp := parallel.Map(parallel.Workers(*workers), len(selected)*core.NumStreams, func(i int) interpResult {
		w := selected[i/core.NumStreams]
		stream := core.Stream(i % core.NumStreams)
		return interpResult{
			name: fmt.Sprintf("interp %s/%s", w.Name, stream),
			err:  checkInterpreters(w, stream),
		}
	})
	for _, r := range interp {
		report(r.name, r.err)
	}

	results := parallel.Map(parallel.Workers(*workers), len(cells), func(i int) interpResult {
		return interpResult{name: cells[i].name(), err: runCell(cells[i], *checkEvery)}
	})
	for _, r := range results {
		report(r.name, r.err)
	}

	// Batched-replay equivalence: record each cell's trace once and replay
	// it through both the scalar and the block engine; every statistic
	// the run produces must match exactly.
	batched := parallel.Map(parallel.Workers(*workers), len(cells), func(i int) interpResult {
		return interpResult{name: "batched " + cells[i].name(), err: checkBatchedReplay(cells[i])}
	})
	for _, r := range batched {
		report(r.name, r.err)
	}

	total := len(interp) + len(results) + len(batched)
	if failures > 0 {
		return fmt.Errorf("%d of %d checks diverged", failures, total)
	}
	fmt.Fprintf(stdout, "validate: all %d checks agree\n", total)
	return nil
}

func selectWorkloads(csv string, short bool) ([]workloads.Workload, error) {
	if csv == "" && short {
		csv = strings.Join(shortWorkloads, ",")
	}
	if csv == "" {
		return workloads.All(), nil
	}
	var out []workloads.Workload
	for _, name := range strings.Split(csv, ",") {
		w, ok := workloads.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

func selectMechanisms(s string) ([]sim.HWKind, error) {
	switch s {
	case "bypass":
		return []sim.HWKind{sim.HWBypass}, nil
	case "victim":
		return []sim.HWKind{sim.HWVictim}, nil
	case "both":
		return []sim.HWKind{sim.HWBypass, sim.HWVictim}, nil
	}
	return nil, fmt.Errorf("unknown -mech %q (want bypass|victim|both)", s)
}

// selectPolicies resolves the replacement-policy axis: the paper's LRU on
// full runs, both policies under -short so the smoke gate covers EHC.
func selectPolicies(s string, short bool) ([]sim.PolicyKind, error) {
	if s == "" {
		if short {
			s = "both"
		} else {
			s = "lru"
		}
	}
	switch s {
	case "lru":
		return []sim.PolicyKind{sim.PolicyLRU}, nil
	case "ehc":
		return []sim.PolicyKind{sim.PolicyEHC}, nil
	case "both":
		return []sim.PolicyKind{sim.PolicyLRU, sim.PolicyEHC}, nil
	}
	return nil, fmt.Errorf("unknown -policy %q (want lru|ehc|both)", s)
}

// selectMemos resolves the way-memoization axis, with the same -short
// default as selectPolicies.
func selectMemos(s string, short bool) ([]bool, error) {
	if s == "" {
		if short {
			s = "both"
		} else {
			s = "off"
		}
	}
	switch s {
	case "off":
		return []bool{false}, nil
	case "on":
		return []bool{true}, nil
	case "both":
		return []bool{false, true}, nil
	}
	return nil, fmt.Errorf("unknown -waymemo %q (want off|on|both)", s)
}

// cell is one lockstep run of the matrix.
type cell struct {
	workload workloads.Workload
	version  core.Version
	machine  sim.Config
	mech     sim.HWKind
	policy   sim.PolicyKind
	waymemo  bool
}

func (c cell) name() string {
	n := fmt.Sprintf("%s/%s/%s/%s", c.workload.Name, c.version, c.mech, c.machine.Name)
	if c.policy == sim.PolicyEHC {
		n += "/ehc"
	}
	if c.waymemo {
		n += "/memo"
	}
	return n
}

// options translates the cell into run options. Way-memo cells also turn
// the energy model on, so its picojoule accounting rides the RunStats
// equality check for free.
func (c cell) options() core.Options {
	o := core.DefaultOptions()
	o.Machine = c.machine
	if c.mech != sim.HWNone {
		o.Mechanism = c.mech
	}
	o.Policy = c.policy
	o.WayMemo = c.waymemo
	o.Energy = c.waymemo
	return o
}

// buildCells enumerates the matrix. Base and PureSoftware never touch the
// hardware mechanism (core wires HWNone for them), so they run once per
// machine configuration instead of once per mechanism.
func buildCells(ws []workloads.Workload, machines []sim.Config, mechs []sim.HWKind, policies []sim.PolicyKind, memos []bool) []cell {
	var cells []cell
	for _, w := range ws {
		for _, m := range machines {
			for _, pol := range policies {
				for _, memo := range memos {
					for _, v := range core.Versions() {
						c := cell{workload: w, version: v, machine: m, mech: sim.HWNone, policy: pol, waymemo: memo}
						if v == core.Base || v == core.PureSoftware {
							cells = append(cells, c)
							continue
						}
						for _, mech := range mechs {
							c.mech = mech
							cells = append(cells, c)
						}
					}
				}
			}
		}
	}
	return cells
}

// runCell prepares the version's program variant and interprets it against
// the engine/reference lockstep pair.
func runCell(c cell, checkEvery uint64) error {
	o := c.options()
	prog, _, _ := core.Prepare(c.workload.Build, c.version, o)
	s := oracle.NewShadow(o.Machine, core.SimOptions(c.version, o))
	s.CheckEvery = checkEvery
	loopir.Run(prog, s)
	_, err := s.Finish()
	return err
}

// checkBatchedReplay records the cell's event stream and replays it twice —
// through the scalar event-at-a-time path and through the batched block
// engine — and requires the full RunStats to match exactly (WallNanos, the
// one nondeterministic field, zeroed).
func checkBatchedReplay(c cell) error {
	o := c.options()
	t, _, _ := core.RecordTrace(c.workload.Build, c.version, o)
	sc := core.ReplayTraceScalar(t, c.version, o)
	ba := core.ReplayTraceBuffered(t, c.version, o, nil)
	sc.Sim.WallNanos, ba.Sim.WallNanos = 0, 0
	if sc.Sim != ba.Sim {
		return fmt.Errorf("batched replay diverges from scalar:\n     scalar  %+v\n     batched %+v", sc.Sim, ba.Sim)
	}
	return nil
}

// checkInterpreters compares the compiled interpreter's event stream with
// the tree-walking reference interpreter's for one workload stream class,
// and validates the marker protocol on the selective stream.
func checkInterpreters(w workloads.Workload, stream core.Stream) error {
	version := map[core.Stream]core.Version{
		core.StreamBase:      core.Base,
		core.StreamOptimized: core.PureSoftware,
		core.StreamSelective: core.Selective,
	}[stream]
	o := core.DefaultOptions()

	prog, _, _ := core.Prepare(w.Build, version, o)
	fast := trace.NewRecorder()
	loopir.Run(prog, fast)

	prog, _, _ = core.Prepare(w.Build, version, o)
	ref := trace.NewRecorder()
	loopir.RunReference(prog, ref)

	ft, rt := fast.Trace(), ref.Trace()
	if idx, ea, eb, diverged := trace.FirstDivergence(ft, rt); diverged {
		return fmt.Errorf("interpreters diverge at event %d: compiled %s, reference %s", idx, ea, eb)
	}
	if stream == core.StreamSelective {
		if err := oracle.CheckMarkerAlternation(ft); err != nil {
			return err
		}
	}
	return nil
}
