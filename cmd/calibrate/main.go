// Command calibrate sweeps the contested hardware-policy knobs (bypass
// fetch span, buffer forwarding latency, prefetch source, cold thresholds)
// and scores each combination against the qualitative shape constraints the
// paper's results impose:
//
//	S1  selective >= combined for every benchmark;
//	S2  selective >= pure-software and >= pure-hardware for every benchmark;
//	S3  pure hardware helps irregular codes on average;
//	S4  pure hardware helps irregular codes more than regular codes;
//	S5  selective beats combined clearly on average;
//	S6  pure software dominates on regular codes.
//
// It exists because those constraints pull the mechanism model in opposite
// directions, and hand-tuning one knob at a time thrashes. The chosen
// combination is frozen into the library defaults; re-run this tool after
// touching the mechanism model or the workloads.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/mat"
	"selcache/internal/workloads"
)

type combo struct {
	bufHitLat  float64
	prefL2     bool
	span       int
	coldSparse uint32
	cold       uint32
}

func (c combo) String() string {
	return fmt.Sprintf("bufLat=%.2f prefL2=%-5v span=%d coldSparse=%-3d cold=%d",
		c.bufHitLat, c.prefL2, c.span, c.coldSparse, c.cold)
}

type scored struct {
	c          combo
	violations []string
	score      float64
	avg        [core.NumVersions]float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of main: flag parsing and dispatch with
// injectable arguments and output streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "coarser grid")
	workers := fs.Int("workers", 0, "sweep worker pool size (0: one per CPU, 1: serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}

	bufLats := []float64{0, 0.5}
	spans := []int{4}
	colds := []uint32{4, 8, 16}
	if *quick {
		bufLats = []float64{0}
		spans = []int{4}
		colds = []uint32{8}
	}

	var results []scored
	for _, bl := range bufLats {
		for _, pl2 := range []bool{true, false} {
			for _, span := range spans {
				for _, cs := range colds {
					c := combo{bufHitLat: bl, prefL2: pl2, span: span, coldSparse: cs, cold: 64}
					results = append(results, evaluate(c, *workers))
					last := results[len(results)-1]
					fmt.Fprintf(stdout, "%s  score=%6.2f  viol=%d\n", c, last.score, len(last.violations))
				}
			}
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].score < results[j].score })
	fmt.Fprintln(stdout, "\n=== best combinations ===")
	for i := 0; i < len(results) && i < 5; i++ {
		r := results[i]
		fmt.Fprintf(stdout, "#%d %s score=%.2f\n", i+1, r.c, r.score)
		fmt.Fprintf(stdout, "   avg: hw=%.2f sw=%.2f comb=%.2f sel=%.2f\n",
			r.avg[core.PureHardware], r.avg[core.PureSoftware],
			r.avg[core.Combined], r.avg[core.Selective])
		for _, v := range r.violations {
			fmt.Fprintf(stdout, "   ! %s\n", v)
		}
	}
	return nil
}

// evaluate scores one knob combination. The 13-benchmark sweep inside it
// fans out across the worker pool; scoring reads the assembled sweep, so
// the scores are identical at any worker count.
func evaluate(c combo, workers int) scored {
	o := core.DefaultOptions()
	o.Machine.BufferHitLat = c.bufHitLat
	o.Machine.PrefetchFromL2 = c.prefL2
	m := mat.DefaultConfig()
	m.FillSpanWords = c.span
	m.ColdMaxSparse = c.coldSparse
	m.ColdMax = c.cold
	o.MAT = m

	sw := experiments.RunSweep(o, nil, experiments.Plan{Workers: workers})
	s := scored{c: c, avg: sw.Avg}

	const eps = 0.25
	for _, row := range sw.Rows {
		sel := row.Improv[core.Selective]
		if d := row.Improv[core.Combined] - sel; d > eps {
			s.violations = append(s.violations,
				fmt.Sprintf("S1 %s: combined %.2f > selective %.2f", row.Benchmark, row.Improv[core.Combined], sel))
			s.score += d
		}
		if d := row.Improv[core.PureSoftware] - sel; d > eps {
			s.violations = append(s.violations,
				fmt.Sprintf("S2 %s: puresw %.2f > selective %.2f", row.Benchmark, row.Improv[core.PureSoftware], sel))
			s.score += d
		}
		if d := row.Improv[core.PureHardware] - sel; d > eps {
			s.violations = append(s.violations,
				fmt.Sprintf("S2 %s: purehw %.2f > selective %.2f", row.Benchmark, row.Improv[core.PureHardware], sel))
			s.score += d
		}
	}
	irr := sw.ClassAvg[workloads.Irregular][core.PureHardware]
	reg := sw.ClassAvg[workloads.Regular][core.PureHardware]
	if irr < 0.5 {
		s.violations = append(s.violations, fmt.Sprintf("S3 irregular purehw avg %.2f < 0.5", irr))
		s.score += 2 * (0.5 - irr)
	}
	if irr < reg {
		s.violations = append(s.violations, fmt.Sprintf("S4 irregular purehw %.2f < regular %.2f", irr, reg))
		s.score += reg - irr
	}
	if gap := sw.Avg[core.Selective] - sw.Avg[core.Combined]; gap < 0.25 {
		s.violations = append(s.violations, fmt.Sprintf("S5 selective-combined gap %.2f < 0.25", gap))
		s.score += 0.25 - gap
	}
	if regSW := sw.ClassAvg[workloads.Regular][core.PureSoftware]; regSW < 30 {
		s.violations = append(s.violations, fmt.Sprintf("S6 regular puresw avg %.2f < 30", regSW))
		s.score += 0.1 * (30 - regSW)
	}
	// Prefer larger absolute hardware benefit on irregular codes once
	// constraints hold (tie-break).
	s.score -= 0.05 * irr
	return s
}
