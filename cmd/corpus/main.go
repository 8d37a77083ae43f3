// Command corpus synthesizes a parametric kernel corpus
// (internal/workloads/synth), sweeps every kernel through all five
// simulated versions on the worker pool, lockstep-checks a deterministic
// sample against the differential oracle, and emits per-class locality
// profiles as a selcache-corpus/v1 artifact.
//
//	corpus                       # 1000 distinct kernels over all 81 families
//	corpus -n 96 -sample 8 -out CORPUS_smoke.json
//	corpus -families deep/irregular/large/spread -n 40
//	corpus -list                 # enumerate the family names
//	corpus -verify CORPUS_smoke.json   # regenerate from the artifact's own
//	                                   # parameters and require byte equality
//
// With -estimate the pipeline scores the symbolic locality estimator
// (internal/locality) instead of profiling classes: every kernel is both
// simulated and statically analyzed, and the per-class prediction
// accuracy becomes a selcache-estimate/v1 artifact:
//
//	corpus -estimate -n 96 -out ESTIMATE_smoke.json
//
// With -energy the pipeline instead sweeps the mechanism-axis grid —
// {lru, ehc} replacement × way memoization {off, on}, energy model
// enabled — over base-version runs of every kernel and aggregates each
// combo into a selcache-energy/v1 artifact:
//
//	corpus -energy -n 48 -out ENERGY_smoke.json
//
// Everything these artifacts record is deterministic, so two runs with
// the same parameters produce byte-identical files; -verify exploits that
// to turn a committed artifact into a regression gate: it reruns the
// pipeline from the artifact's own corpus header and requires the result
// to encode to exactly the file's bytes (the artifact kind is sniffed from
// its schema field). Exit status is non-zero on any oracle divergence or
// verification mismatch.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"selcache/internal/core"
	"selcache/internal/corpus"
	"selcache/internal/report"
	"selcache/internal/sim"
	"selcache/internal/workloads/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "corpus: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("corpus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 1000, "fingerprint-distinct kernels to synthesize")
	familiesFlag := fs.String("families", "", "comma-separated family subset (default: all 81)")
	seed := fs.Uint64("seed", 1, "base seed the per-family seed sequences start at")
	mech := fs.String("mech", "bypass", "hardware mechanism for the sweep: bypass|victim")
	sample := fs.Int("sample", 32, "kernels to lockstep-check against the differential oracle")
	workers := fs.Int("workers", 0, "worker goroutines (0 = one per CPU)")
	out := fs.String("out", "", "write the corpus-profile artifact (JSON) to this path")
	estimate := fs.Bool("estimate", false, "score the symbolic estimator against the simulator instead of profiling classes")
	energyOn := fs.Bool("energy", false, "sweep the policy × way-memo grid with the energy model instead of profiling classes")
	list := fs.Bool("list", false, "list the family names, without running")
	verify := fs.String("verify", "", "regenerate from this artifact's parameters and require byte equality (schema-sniffed)")
	verbose := fs.Bool("v", false, "print every synthesized kernel and spot-check cell")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	if *list {
		for _, f := range synth.Families() {
			fmt.Fprintln(stdout, f.Name())
		}
		return nil
	}
	if *verify != "" {
		return verifyArtifact(*verify, *workers, stdout, stderr)
	}
	if *estimate && *energyOn {
		return fmt.Errorf("-estimate and -energy are mutually exclusive")
	}

	var err error
	fams := synth.Families()
	if *familiesFlag != "" {
		if fams, err = familiesByName(strings.Split(*familiesFlag, ",")); err != nil {
			return err
		}
	}
	o := core.DefaultOptions()
	if o.Mechanism, err = selectMechanism(*mech); err != nil {
		return err
	}
	spec := corpus.Spec{Families: fams, N: *n, BaseSeed: *seed}
	var art report.Artifact
	switch {
	case *energyOn:
		art, err = executeEnergy(spec, o, *workers, stdout, stderr)
	case *estimate:
		art, err = executeEstimate(spec, o, *workers, stdout, stderr)
	default:
		art, err = execute(spec, *sample, o, *workers, stdout, stderr, *verbose)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := report.WriteFile(*out, art); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return oracleErr(art)
}

// executeEstimate runs the synthesize → simulate → statically-analyze →
// score pipeline behind -estimate.
func executeEstimate(spec corpus.Spec, o core.Options, workers int, stdout, stderr io.Writer) (*report.EstimateJSON, error) {
	start := time.Now()
	kernels, st, err := build(spec, stdout)
	if err != nil {
		return nil, err
	}
	rows := corpus.Sweep(kernels, o, workers)
	ests := corpus.Estimates(kernels, o, workers)
	art := corpus.EstimateArtifact(spec, st, kernels, rows, ests, o)
	fmt.Fprintf(stdout, "estimate: verdicts %d exact / %d bounded / %d declined over %d kernels\n",
		art.Exact, art.Bounded, art.Declined, art.Kernels)
	for _, v := range art.Overall {
		fmt.Fprintf(stdout, "estimate: %-14s L1 mean|err| %.2fpp  max %.2fpp  bias %+.2fpp  (%d kernels)\n",
			v.Version, v.MeanAbsErrPct, v.MaxAbsErrPct, v.BiasPct, v.Kernels)
	}
	fmt.Fprintf(stdout, "estimate: fingerprint %s\n", art.CorpusFingerprint)
	fmt.Fprintf(stderr, "estimate: %.1fs\n", time.Since(start).Seconds())
	return art, nil
}

// executeEnergy runs the synthesize → policy×waymemo sweep → aggregate
// pipeline behind -energy.
func executeEnergy(spec corpus.Spec, o core.Options, workers int, stdout, stderr io.Writer) (*report.EnergyJSON, error) {
	start := time.Now()
	kernels, st, err := build(spec, stdout)
	if err != nil {
		return nil, err
	}
	art := corpus.EnergyArtifact(spec, st, kernels, o, workers)
	if err := art.Validate(); err != nil {
		return nil, err
	}
	for _, c := range art.Combos {
		memo := "off"
		if c.WayMemo {
			memo = "on"
		}
		fmt.Fprintf(stdout, "energy: %-3s memo=%-3s total %d pJ  (L1 miss %d, L2 miss %d, tag reads avoided %d)\n",
			c.Policy, memo, c.TotalPJ, c.L1Misses, c.L2Misses, c.TagReadsAvoided)
	}
	fmt.Fprintf(stdout, "energy: fingerprint %s\n", art.CorpusFingerprint)
	fmt.Fprintf(stderr, "energy: %.1fs\n", time.Since(start).Seconds())
	return art, nil
}

// execute runs the synthesize → sweep → spot-check → aggregate pipeline and
// returns the assembled artifact. Progress and timing go to stderr so
// stdout stays deterministic.
func execute(spec corpus.Spec, sample int, o core.Options, workers int, stdout, stderr io.Writer, verbose bool) (*report.CorpusJSON, error) {
	start := time.Now()
	kernels, st, err := build(spec, stdout)
	if err != nil {
		return nil, err
	}
	if verbose {
		for _, k := range kernels {
			fmt.Fprintf(stdout, "  %s  %s\n", k.Fingerprint[:12], k.Name())
		}
	}

	rows := corpus.Sweep(kernels, o, workers)
	checks := corpus.SpotCheck(kernels, sample, o, workers)
	for _, c := range checks {
		if c.Err != nil {
			fmt.Fprintf(stdout, "FAIL oracle %s\n     %v\n", c.Name(), c.Err)
		} else if verbose {
			fmt.Fprintf(stdout, "ok   oracle %s\n", c.Name())
		}
	}

	art := corpus.Artifact(spec, st, kernels, rows, checks, o)
	fmt.Fprintf(stdout, "corpus: swept %d versions/kernel, %d events; oracle %d/%d clean; %d class profiles\n",
		core.NumVersions, corpus.Events(rows), len(checks)-art.OracleDivergences, len(checks), len(art.Profiles))
	fmt.Fprintf(stdout, "corpus: fingerprint %s\n", art.CorpusFingerprint)
	fmt.Fprintf(stderr, "corpus: %.1fs\n", time.Since(start).Seconds())
	return art, nil
}

// build synthesizes the corpus and reports what synthesis produced.
func build(spec corpus.Spec, stdout io.Writer) ([]synth.Kernel, corpus.BuildStats, error) {
	kernels, st, err := corpus.Build(spec)
	if err == nil {
		fmt.Fprintf(stdout, "corpus: %d distinct kernels from %d families (%d draws, %d duplicates)\n",
			len(kernels), len(spec.Families), st.Generated, st.Duplicates)
	}
	return kernels, st, err
}

// oracleErr fails a corpus-profile run whose oracle spot checks diverged.
func oracleErr(art report.Artifact) error {
	if c, ok := art.(*report.CorpusJSON); ok && c.OracleDivergences > 0 {
		return fmt.Errorf("%d of %d oracle spot checks diverged", c.OracleDivergences, c.OracleSample)
	}
	return nil
}

// verifyArtifact reruns the pipeline that produced the artifact at path
// from the corpus header it records, and requires the regenerated artifact
// to encode to exactly the file's bytes — the determinism gate behind
// `make artifacts`. The artifact kind is sniffed from its schema field;
// the file itself is loaded strictly, so an unknown field fails too.
func verifyArtifact(path string, workers int, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var got report.Artifact
	switch head.Schema {
	case report.CorpusSchema:
		got, err = regenerate(path, func(want *report.CorpusJSON, spec corpus.Spec, o core.Options) (report.Artifact, error) {
			return execute(spec, want.OracleSample, o, workers, stdout, stderr, false)
		})
	case report.EstimateSchema:
		got, err = regenerate(path, func(_ *report.EstimateJSON, spec corpus.Spec, o core.Options) (report.Artifact, error) {
			return executeEstimate(spec, o, workers, stdout, stderr)
		})
	case report.EnergySchema:
		got, err = regenerate(path, func(_ *report.EnergyJSON, spec corpus.Spec, o core.Options) (report.Artifact, error) {
			return executeEnergy(spec, o, workers, stdout, stderr)
		})
	default:
		return fmt.Errorf("%s: unknown schema %q (want %q, %q or %q)", path, head.Schema, report.CorpusSchema, report.EstimateSchema, report.EnergySchema)
	}
	if err != nil {
		return err
	}
	data, err := report.Encode(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, raw) {
		return fmt.Errorf("%s: regenerated artifact differs from committed file (same parameters must be byte-identical; rerun with -out if the change is intended)", path)
	}
	fmt.Fprintf(stdout, "verify %s: artifact regenerates byte-identically\n", path)
	return oracleErr(got)
}

// regenerate loads the artifact at path strictly as a T, decodes its
// corpus header back into the corpus spec and options, and reruns the
// pipeline step that produced it.
func regenerate[T any, PT interface {
	*T
	report.Artifact
	Corpus() *report.CorpusHeader
}](path string, step func(want PT, spec corpus.Spec, o core.Options) (report.Artifact, error)) (report.Artifact, error) {
	want, err := report.Load[T, PT](path)
	if err != nil {
		return nil, err
	}
	h := PT(want).Corpus()
	fams, err := familiesByName(h.Families)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	o := core.DefaultOptions()
	if o.Mechanism, err = selectMechanism(h.Mechanism); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if o.Machine.Name != h.Machine {
		return nil, fmt.Errorf("%s: artifact machine %q, tool simulates %q", path, h.Machine, o.Machine.Name)
	}
	return step(want, corpus.Spec{Families: fams, N: h.Requested, BaseSeed: h.BaseSeed}, o)
}

func familiesByName(names []string) ([]synth.Family, error) {
	out := make([]synth.Family, len(names))
	for i, name := range names {
		f, ok := synth.FamilyByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown family %q (see -list)", name)
		}
		out[i] = f
	}
	return out, nil
}

func selectMechanism(s string) (sim.HWKind, error) {
	if k, ok := sim.MechanismByName(s); ok {
		return k, nil
	}
	return sim.HWNone, fmt.Errorf("unknown mechanism %q (want bypass|victim)", s)
}
