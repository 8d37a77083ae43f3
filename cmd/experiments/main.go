// Command experiments regenerates every table and figure of the paper's
// evaluation section:
//
//	experiments -run table2     # benchmark characteristics
//	experiments -run figures    # Figures 4-9 (cache bypassing)
//	experiments -run table3     # average improvements, both mechanisms
//	experiments -run all        # everything (the default)
//
// Sweeps fan out across a worker pool (-workers; 0 means one per CPU, 1
// forces the serial path) with deterministic assembly, so the output is
// identical at any worker count. Each distinct program variant is
// interpreted once into an event trace and replayed across every machine
// configuration; -tracedir persists those traces as .sctrace files so
// repeated runs skip the interpreter entirely. -cpuprofile writes a pprof
// profile of the run. Output goes to stdout; EXPERIMENTS.md records a
// reference run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/parallel"
	"selcache/internal/report"
	"selcache/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of main: flag parsing and dispatch with
// injectable arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runSel     = fs.String("run", "all", "table2|figures|table3|all")
		workers    = fs.Int("workers", 0, "worker pool size (0: one per CPU, 1: serial)")
		tracedir   = fs.String("tracedir", "", "persist recorded event traces as .sctrace files in `dir`")
		cpuprofile = fs.String("cpuprofile", "", "write CPU profile to `file`")
		policySel  = fs.String("policy", "lru", "cache replacement policy for every cell: lru|ehc")
		waymemo    = fs.Bool("waymemo", false, "enable way memoization on every cell")
		energyOn   = fs.Bool("energy", false, "enable the energy model and print per-figure energy tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}

	doTable2 := *runSel == "all" || *runSel == "table2"
	doFigures := *runSel == "all" || *runSel == "figures"
	doTable3 := *runSel == "all" || *runSel == "table3"
	if !doTable2 && !doFigures && !doTable3 {
		return fmt.Errorf("unknown -run %q", *runSel)
	}

	// The mechanism-axis flags thread through an OptionMod; at the
	// defaults the mod stays nil and output is byte-identical to the
	// committed reference.
	var mod experiments.OptionMod
	var pol sim.PolicyKind
	switch *policySel {
	case "lru":
		pol = sim.PolicyLRU
	case "ehc":
		pol = sim.PolicyEHC
	default:
		return fmt.Errorf("unknown -policy %q (lru|ehc)", *policySel)
	}
	if pol != sim.PolicyLRU || *waymemo || *energyOn {
		mod = func(o *core.Options) {
			o.Policy = pol
			o.WayMemo = *waymemo
			o.Energy = *energyOn
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	tc := experiments.NewTraceCache(*tracedir)
	start := time.Now()
	var events uint64
	if doTable2 {
		rows := experiments.Table2CachedMod(*workers, tc, mod)
		for _, r := range rows {
			events += r.Instructions
		}
		report.WriteTable2(stdout, rows)
	}
	if doFigures {
		for _, f := range experiments.Figures() {
			sw := experiments.RunFigureCachedMod(f, *workers, tc, mod)
			events += sw.Events()
			report.WriteFigure(stdout, f.Name(), sw)
			if *energyOn {
				report.WriteEnergy(stdout, sw)
			}
			if f == experiments.Figure4 {
				report.WriteClassAverages(stdout, sw)
			}
		}
	}
	if doTable3 {
		rows, sweeps := experiments.Table3CachedMod(*workers, tc, mod)
		for _, sw := range sweeps {
			events += sw.Events()
		}
		report.WriteTable3(stdout, rows)
	}
	elapsed := time.Since(start)

	writeSummary(stderr, events, elapsed, parallel.Workers(*workers), tc.Stats(), *tracedir != "")
	return nil
}

// writeSummary prints the run's throughput and trace-cache effectiveness.
// It goes to stderr so redirected stdout stays byte-stable against the
// committed reference (experiments_output.txt). A non-zero disk-error
// count gets its own warning line: silent persistence failures (a corrupt
// .sctrace, an unwritable directory) would otherwise look like ordinary
// cold-cache recordings.
func writeSummary(w io.Writer, events uint64, elapsed time.Duration, workers int, cs experiments.TraceCacheStats, persisted bool) {
	fmt.Fprintf(w, "throughput: %.1fM simulated events in %.1fs (%.1fM events/s, workers=%d)\n",
		float64(events)/1e6, elapsed.Seconds(),
		float64(events)/1e6/elapsed.Seconds(), workers)
	fmt.Fprintf(w, "trace cache: %d hits, %d misses (%d streams, %.1f MB recorded", cs.Hits, cs.Misses, cs.Streams, float64(cs.Bytes)/1e6)
	if persisted {
		fmt.Fprintf(w, ", %d loaded from disk, %d disk errors", cs.DiskLoads, cs.DiskErrors)
	}
	fmt.Fprintln(w, ")")
	if cs.DiskErrors > 0 {
		fmt.Fprintf(w, "warning: %d trace disk errors — persistence is degraded; check -tracedir permissions and delete corrupt .sctrace files\n", cs.DiskErrors)
	}
}
