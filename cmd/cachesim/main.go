// Command cachesim runs one benchmark through one simulated version and
// prints the measured statistics.
//
// Usage:
//
//	cachesim -bench swim -version selective -config base -mech bypass
//	cachesim -bench all -version all
//	cachesim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"selcache/internal/core"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "cachesim: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of main: flag parsing and dispatch with
// injectable arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "swim", "benchmark name, or 'all'")
		version   = fs.String("version", "all", "base|pure-hardware|pure-software|combined|selective|all")
		configSel = fs.String("config", "base", "base|higher-mem-lat|larger-l2|larger-l1|higher-l2-assoc|higher-l1-assoc")
		mech      = fs.String("mech", "bypass", "bypass|victim")
		classify  = fs.Bool("classify", false, "attribute misses to conflict/capacity/compulsory")
		list      = fs.Bool("list", false, "list benchmarks and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%-10s %-9s %s\n", w.Name, w.Class, w.Models)
		}
		return nil
	}

	cfg, ok := sim.ConfigByName(*configSel)
	if !ok {
		return fmt.Errorf("unknown config %q", *configSel)
	}
	o := core.DefaultOptions()
	o.Machine = cfg
	o.Classify = *classify
	if o.Mechanism, ok = sim.MechanismByName(*mech); !ok {
		return fmt.Errorf("unknown mechanism %q", *mech)
	}

	if *version != "all" && !versionKnown(*version) {
		return fmt.Errorf("unknown version %q", *version)
	}

	var benches []workloads.Workload
	if *benchName == "all" {
		benches = workloads.All()
	} else {
		w, ok := workloads.ByName(*benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", *benchName)
		}
		benches = []workloads.Workload{w}
	}

	// One machine for the whole loop, reset before every version.
	var r core.Runner
	for _, w := range benches {
		var base core.Result
		for _, v := range core.Versions() {
			if !versionSelected(*version, v) && v != core.Base {
				continue
			}
			res := r.Run(w.Build, v, o)
			if v == core.Base {
				base = res
			}
			if !versionSelected(*version, v) {
				continue
			}
			printResult(stdout, w, res, base)
		}
	}
	return nil
}

func versionSelected(sel string, v core.Version) bool {
	return sel == "all" || sel == v.String()
}

func versionKnown(sel string) bool {
	for _, v := range core.Versions() {
		if sel == v.String() {
			return true
		}
	}
	return false
}

func printResult(w io.Writer, wl workloads.Workload, r, base core.Result) {
	s := r.Sim
	fmt.Fprintf(w, "%-10s %-14s cycles=%-12d instr=%-11d mem=%-10d L1miss=%5.2f%% L2miss=%5.2f%%",
		wl.Name, r.Version, s.Cycles, s.Instructions, s.MemOps,
		100*s.L1.MissRate(), 100*s.L2.MissRate())
	if r.Version != core.Base && base.Sim.Cycles > 0 {
		fmt.Fprintf(w, " improv=%6.2f%%", core.Improvement(base, r))
	}
	if s.Markers > 0 {
		fmt.Fprintf(w, " markers=%d", s.Markers)
	}
	if s.Bypasses > 0 {
		fmt.Fprintf(w, " bypass=%d bufHit=%d", s.Bypasses, s.Buffer.Hits)
	}
	if s.Victim1.Probes > 0 {
		fmt.Fprintf(w, " vc1hit=%d vc2hit=%d", s.Victim1.Hits, s.Victim2.Hits)
	}
	if r.Version == core.Selective {
		fmt.Fprintf(w, " [regions hw=%d sw=%d mixed=%d markers ins=%d elim=%d]",
			r.Regions.HardwareLoops, r.Regions.SoftwareLoops, r.Regions.MixedLoops,
			r.Regions.Inserted, r.Regions.Eliminated)
	}
	if r.Opt.NestsOptimized > 0 {
		fmt.Fprintf(w, " [opt ic=%d layout=%d tile=%d uj=%d sr=%d]",
			r.Opt.Interchanged, r.Opt.LayoutsChanged, r.Opt.Tiled, r.Opt.Unrolled, r.Opt.RefsPromoted)
	}
	fmt.Fprintln(w)
	if s.L1Class.Total() > 0 {
		fmt.Fprintf(w, "           L1 misses: conflict=%d capacity=%d compulsory=%d\n",
			s.L1Class.Conflict, s.L1Class.Capacity, s.L1Class.Compulsory)
	}
}
