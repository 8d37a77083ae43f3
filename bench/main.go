// Command bench is the repository's performance benchmark. One invocation
// runs one workload (or all four, each in a fresh child process), checks
// every output against golden digests, and prints every metric by name
// with its unit. It reads and writes paths relative to the repository
// root, where bench/run.sh builds and runs it; bench/README.md explains
// the workloads, the metrics and the traced run.
//
//	bash bench/run.sh --workload table3 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all -runs 3 -out head.json
//	bash bench/run.sh -compare base.json head.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
// with the end-to-end metrics untraced (--trace 0) and the per-layer
// metrics traced (--trace 1). Any failed check exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"table3", "live", "corpus", "serve"}

// metricDef declares one reported metric. Bounds and directions live in
// BENCHMARK.json; the bench test keeps the two lists equal.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by untraced runs.
var e2eMetrics = []metricDef{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput", "1/s"},
	{"setup_s", "s"},
	{"retained_mb", "MB"},
}

// layerMetrics are reported by traced runs. Every metric is reported for
// every workload; a layer a workload does not reach reads 0, which is why
// layer-specific quantities are shares, counts and sizes rather than times.
var layerMetrics = []metricDef{
	{"bench.self_frac", "frac"},
	{"experiments.self_frac", "frac"},
	{"trace.self_frac", "frac"},
	{"sim.self_frac", "frac"},
	{"loopir.self_frac", "frac"},
	{"workloads.self_frac", "frac"},
	{"regions.self_frac", "frac"},
	{"opt.self_frac", "frac"},
	{"locality.self_frac", "frac"},
	{"server.self_frac", "frac"},
	{"loadgen.self_frac", "frac"},
	{"events.produce.ns_per_event", "ns"},
	{"sim.consume.ns_per_event", "ns"},
	{"sim.new_machine.us", "us"},
	{"sim.finish.us", "us"},
	{"sim.events_per_run", "count"},
	{"sim.runs", "count"},
	{"experiments.trace_cache.hit_ratio", "frac"},
	{"experiments.trace_cache.gets", "count"},
	{"experiments.trace_cache.waits", "count"},
	{"trace.packed_mb", "MB"},
	{"trace.encoded_mb", "MB"},
	{"parallel.utilization", "frac"},
	{"parallel.tail_frac", "frac"},
	{"server.tier.memory_frac", "frac"},
	{"server.tier.computed_frac", "frac"},
	{"server.queue_frac", "frac"},
	{"server.dedup_waits", "count"},
	{"server.shed", "count"},
	{"loadgen.late_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
}

// timeUnits are the units a run must actually measure: a missing time is a
// broken workload, not a zero.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run in an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	Result   result `json:"result"`
}

// runFile is the -out file: every run of one invocation.
type runFile struct {
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Trace   int         `json:"trace"`
	Runs    []runRecord `json:"runs"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: table3, live, corpus, serve or all")
		seed     = fs.Int64("seed", 1, "input seed; equal seeds give equal inputs")
		seconds  = fs.Int("seconds", 10, "measured seconds per run")
		traceOn  = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		spans    = fs.String("spans", "", "span file of a traced single-workload run (default .bench_build/spans-<workload>.json)")
		out      = fs.String("out", "", "also write every run's result to this JSON file")
		runs     = fs.Int("runs", 1, "run the workloads this many times, alternating order, and report medians")
		compare  = fs.String("compare", "", "compare this -out file (base) with the one given as argument (head)")
		regen    = fs.Bool("regen-golden", false, "recompute bench/golden from the library and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	switch {
	case *regen:
		if err := regenGoldens(".", filepath.Join("bench", "golden")); err != nil {
			return fail(err)
		}
		return 0
	case *compare != "":
		if fs.NArg() != 1 {
			return fail(fmt.Errorf("-compare takes the base file as its value and the head file as the argument"))
		}
		ok, err := compareFiles(stdout, "BENCHMARK.json", *compare, fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds < 1 || *traceOn < 0 || *traceOn > 1 || *runs < 1 {
		return fail(fmt.Errorf("need --seconds >= 1, --trace 0 or 1, -runs >= 1"))
	}
	if *workload != "all" && !slices.Contains(workloadNames, *workload) {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	rf := runFile{Seed: *seed, Seconds: *seconds, Trace: *traceOn}

	if *workload != "all" && *runs == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+*workload+".json")
		}
		o, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, path)
		if err != nil {
			return fail(err)
		}
		res, err := buildResult(o, *traceOn == 1)
		if err != nil {
			return fail(err)
		}
		printReport(stderr, *workload, o, res)
		rf.Runs = []runRecord{{Workload: *workload, Result: res}}
		if err := writeRunFile(*out, rf); err != nil {
			return fail(err)
		}
		if err := printLine(stdout, res); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	for r := 0; r < *runs; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, n := range order {
			cargs := []string{"--workload", n, "--seed", strconv.FormatInt(*seed, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*traceOn)}
			res, err := runChild(exe, cargs, stderr)
			if err != nil {
				return fail(fmt.Errorf("%s run %d: %w", n, r, err))
			}
			rf.Runs = append(rf.Runs, runRecord{Workload: n, Run: r, Result: res})
		}
	}
	agg := summarize(stderr, rf.Runs)
	if err := writeRunFile(*out, rf); err != nil {
		return fail(err)
	}
	if err := printLine(stdout, agg); err != nil {
		return fail(err)
	}
	if !agg.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(name string, seed int64, d time.Duration, traced bool, spans string) (*outcome, error) {
	switch name {
	case "table3":
		b, err := newTable3(seed)
		if err != nil {
			return nil, err
		}
		return runBatch(b, d, traced, spans)
	case "live":
		l := newLive(seed)
		if err := loadGolden("live.json", &l.golden); err != nil {
			return nil, err
		}
		return runBatch(l, d, traced, spans)
	case "corpus":
		c, err := newCorpus(seed)
		if err != nil {
			return nil, err
		}
		return runBatch(c, d, traced, spans)
	case "serve":
		return runServe(seed, d, traced, spans)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildResult turns an outcome into the printed result, holding exactly
// the declared metrics of the run's kind.
func buildResult(o *outcome, traced bool) (result, error) {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && timeUnits[d.unit] {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range o.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return res, nil
}

// printReport prints a run's metrics and failures for a human, on stderr.
func printReport(w io.Writer, name string, o *outcome, res result) {
	fmt.Fprintf(w, "%s: %d attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func printLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeRunFile(path string, rf runFile) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild runs one workload in a fresh process and parses its last line.
// A child whose checks failed still prints its result and exits 1; the
// result then carries the failure.
func runChild(exe string, args []string, stderr io.Writer) (result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}
