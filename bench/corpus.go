package main

import (
	"fmt"
	"sync"

	"selcache/internal/core"
	"selcache/internal/corpus"
	"selcache/internal/locality"
	"selcache/internal/loopir"
	"selcache/internal/opt"
	"selcache/internal/regions"
	"selcache/internal/sim"
	"selcache/internal/workloads/synth"
)

// corpusKernels is the corpus size: large enough that the per-kernel
// latency distribution repeats across seeds, small enough to build three
// times per run in about two seconds.
const corpusKernels = 2000

func corpusSpec(seed int64) corpus.Spec {
	return corpus.Spec{Families: synth.Families(), N: corpusKernels, BaseSeed: uint64(seed)}
}

// kernelDigest hashes one kernel's sweep row and estimates.
func kernelDigest(row corpus.Row, est corpus.EstimateRow) string {
	for v := range row.Stats {
		row.Stats[v].WallNanos = 0
	}
	return digest(struct {
		Stats    [core.NumVersions]sim.RunStats
		Improv   [core.NumVersions]float64
		Regions  regions.Stats
		Variants []core.VariantEstimate
	}{row.Stats, row.Improv, row.Regions, est.Variants})
}

// corpusWL sweeps seeded synthetic kernels through all five versions and
// the locality estimator, one kernel per operation: mostly compiling small
// programs (synthesis, region detection, the optimizer), machine
// construction and locality analysis, with little simulation.
type corpusWL struct {
	seed int64
	o    core.Options
	ks   []synth.Kernel
	// golden holds the committed per-kernel digests when the seed matches
	// them; otherwise every repeat of a kernel must reproduce the digest
	// of its first run.
	golden []string
	mu     sync.Mutex
	first  map[int]string
	probe  [][core.NumVersions]float64 // interpreter ns/event, traced runs only
}

func newCorpus(seed int64) (*corpusWL, error) {
	c := &corpusWL{seed: seed, o: core.DefaultOptions(), first: map[int]string{}}
	var g corpusGolden
	if err := loadGolden("corpus.json", &g); err != nil {
		return nil, err
	}
	if g.Seed == seed {
		if len(g.Digests) != corpusKernels {
			return nil, fmt.Errorf("corpus golden: %d digests for %d kernels", len(g.Digests), corpusKernels)
		}
		c.golden = g.Digests
	}
	return c, nil
}

func (c *corpusWL) pass() int                       { return corpusKernels }
func (c *corpusWL) tailPct() float64                { return 95 }
func (c *corpusWL) tracedOps() int                  { return 400 }
func (c *corpusWL) layerMetrics(map[string]float64) {}

// setup synthesizes the corpus. A traced run also measures each traced
// kernel's interpreter-only cost per version.
func (c *corpusWL) setup(rec *spanRec) error {
	ks, _, err := corpus.Build(corpusSpec(c.seed))
	if err != nil {
		return err
	}
	c.ks = ks
	if rec != nil {
		c.probe = make([][core.NumVersions]float64, c.tracedOps())
		for i := range c.probe {
			for _, v := range core.Versions() {
				c.probe[i][v], _ = interpNsPerEvent(ks[i].Build, v, c.o)
			}
		}
	}
	return nil
}

// kernelOut is one corpus operation's output.
type kernelOut struct {
	row corpus.Row
	est corpus.EstimateRow
}

func (c *corpusWL) op(_, i int) any {
	ks := c.ks[i : i+1]
	return kernelOut{corpus.Sweep(ks, c.o, 1)[0], corpus.Estimates(ks, c.o, 1)[0]}
}

func (c *corpusWL) tracedOp(rec *spanRec, root tok, _, i int) any {
	k := c.ks[i]
	row := corpus.Row{Kernel: k}
	var base core.Result
	for _, v := range core.Versions() {
		res := tracedRun(rec, root, k.Build, v, c.o, c.probe[i][v])
		if v == core.Base {
			base = res
		}
		row.Stats[v] = res.Sim
		row.Improv[v] = core.Improvement(base, res)
		if v == core.Selective {
			row.Regions = res.Regions
		}
	}
	return kernelOut{row, corpus.EstimateRow{Kernel: k, Variants: tracedEstimates(rec, root, k.Build, c.o)}}
}

func (c *corpusWL) verify(i int, out any) error {
	k := out.(kernelOut)
	d := kernelDigest(k.row, k.est)
	if c.golden != nil {
		if d != c.golden[i] {
			return fmt.Errorf("corpus seed %d kernel %d (%s): digest %s, golden %s", c.seed, i, c.ks[i].Name(), d, c.golden[i])
		}
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.first[i]; ok && prev != d {
		return fmt.Errorf("corpus seed %d kernel %d (%s): digest %s, earlier run gave %s", c.seed, i, c.ks[i].Name(), d, prev)
	}
	c.first[i] = d
	return nil
}

// check runs the differential oracle (a naive reference machine in
// lockstep) on eight kernels spread across the corpus.
func (c *corpusWL) check(o *outcome) {
	for _, r := range corpus.SpotCheck(c.ks, 8, c.o, workers) {
		o.attempted++
		if r.Err != nil {
			o.fail("corpus oracle %s: %v", r.Name(), r.Err)
		}
	}
}

// tracedEstimates is core.EstimateVariants with spans: the three distinct
// program variants of the five versions plus the cache-oblivious (PCOT)
// variant, each prepared and analyzed.
func tracedEstimates(rec *spanRec, parent tok, build core.Builder, o core.Options) []core.VariantEstimate {
	o = o.Normalized()
	g := locality.FromConfig(o.Machine)
	analyze := func(prog *loopir.Program) locality.Estimate {
		sp := rec.child(parent, "locality.analyze")
		defer rec.end(sp, nil)
		return locality.Analyze(prog, g)
	}
	est := map[core.Version]locality.Estimate{}
	for _, v := range []core.Version{core.Base, core.PureSoftware, core.Selective} {
		prog, _ := prepare(rec, parent, build, v, o)
		est[v] = analyze(prog)
	}
	est[core.PureHardware], est[core.Combined] = est[core.Base], est[core.PureSoftware]
	out := make([]core.VariantEstimate, 0, core.NumVersions+1)
	for _, v := range core.Versions() {
		out = append(out, core.VariantEstimate{Name: v.String(), Estimate: est[v]})
	}

	sp := rec.child(parent, "workloads.build")
	prog := build()
	rec.end(sp, nil)
	po := o.Opt
	po.PCOT = true
	sp = rec.child(parent, "opt.optimize")
	opt.Optimize(prog, po)
	rec.end(sp, nil)
	return append(out, core.VariantEstimate{Name: core.PCOTVariant, Estimate: analyze(prog)})
}
