// Package corpus turns the parametric kernel families of
// internal/workloads/synth into a swept, spot-checked experiment surface:
// it synthesizes a fingerprint-deduplicated corpus, runs every kernel
// through all five simulated versions on the parallel worker pool,
// lockstep-checks a deterministic sample against the differential oracle
// (internal/oracle), and aggregates per-class locality profiles into the
// selcache-corpus/v1 artifact (internal/report).
//
// Everything here is deterministic given the Spec: kernel draw order,
// sweep assembly, sampling, and profile accumulation (rows are sorted by
// fingerprint inside each class before float accumulation, so profiles are
// invariant under corpus permutation — TestProfilesPermutationInvariant
// pins that).
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"selcache/internal/core"
	"selcache/internal/loopir"
	"selcache/internal/oracle"
	"selcache/internal/parallel"
	"selcache/internal/regions"
	"selcache/internal/report"
	"selcache/internal/sim"
	"selcache/internal/workloads/synth"
)

// Spec describes a corpus: which families to draw from, how many
// fingerprint-distinct kernels to synthesize, and the base seed the
// per-family seed sequences start at.
type Spec struct {
	Families []synth.Family
	N        int
	BaseSeed uint64
}

// BuildStats reports how synthesis went.
type BuildStats struct {
	// Generated counts every draw, Duplicates the draws discarded
	// because their fingerprint was already in the corpus.
	Generated  int
	Duplicates int
}

// maxBarrenRounds bounds how many consecutive full round-robin passes may
// add nothing before Build gives up — a safety valve against a family set
// so small and collision-prone it can never reach N distinct kernels.
const maxBarrenRounds = 8

// Build synthesizes the corpus: seeds are drawn round-robin across the
// family list (seed BaseSeed+round for every family in order, then the
// next round) and deduplicated by content fingerprint, until N distinct
// kernels exist. Draw order is the corpus order — fully deterministic from
// the Spec.
func Build(spec Spec) ([]synth.Kernel, BuildStats, error) {
	var st BuildStats
	if spec.N < 1 {
		return nil, st, fmt.Errorf("corpus: N %d < 1", spec.N)
	}
	if len(spec.Families) == 0 {
		return nil, st, fmt.Errorf("corpus: no families")
	}
	seen := make(map[string]bool, spec.N)
	out := make([]synth.Kernel, 0, spec.N)
	barren := 0
	for round := uint64(0); len(out) < spec.N; round++ {
		added := false
		for _, f := range spec.Families {
			if len(out) == spec.N {
				break
			}
			k, err := synth.Make(f, spec.BaseSeed+round)
			if err != nil {
				return nil, st, err
			}
			st.Generated++
			if seen[k.Fingerprint] {
				st.Duplicates++
				continue
			}
			seen[k.Fingerprint] = true
			out = append(out, k)
			added = true
		}
		if added {
			barren = 0
		} else if barren++; barren >= maxBarrenRounds {
			return nil, st, fmt.Errorf("corpus: stuck at %d of %d distinct kernels after %d barren rounds",
				len(out), spec.N, barren)
		}
	}
	return out, st, nil
}

// Fingerprint content-addresses a whole corpus: the SHA-256 over the
// sorted kernel fingerprints. Equal values mean identical kernel sets,
// regardless of order.
func Fingerprint(kernels []synth.Kernel) string {
	fps := make([]string, len(kernels))
	for i, k := range kernels {
		fps[i] = k.Fingerprint
	}
	sort.Strings(fps)
	h := sha256.New()
	for _, fp := range fps {
		h.Write([]byte(fp))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Row is one kernel's sweep result: the full per-version statistics plus
// the selective version's region-detection stats.
type Row struct {
	Kernel  synth.Kernel
	Stats   [core.NumVersions]sim.RunStats
	Improv  [core.NumVersions]float64
	Regions regions.Stats
}

// Sweep runs every kernel through all five versions under o on the
// bounded worker pool. Each cell is independent (fresh programs, run on
// the worker's machine reset before every version), so results are
// byte-identical to a serial loop regardless of worker count.
func Sweep(kernels []synth.Kernel, o core.Options, workers int) []Row {
	return parallel.MapWith(workers, len(kernels), func(r *core.Runner, i int) Row {
		return runKernel(kernels[i], o, r)
	})
}

// runKernel is one sweep cell: one kernel's five versions on the worker's
// runner.
func runKernel(k synth.Kernel, o core.Options, r *core.Runner) Row {
	row := Row{Kernel: k}
	res := r.RunAll(k.Build, o)
	for _, r := range res {
		row.Stats[r.Version] = r.Sim
		row.Improv[r.Version] = core.Improvement(res[core.Base], r)
	}
	row.Regions = res[core.Selective].Regions
	return row
}

// Events sums the simulated instructions across every version run of the
// rows (throughput reporting).
func Events(rows []Row) uint64 {
	var n uint64
	for i := range rows {
		for v := range rows[i].Stats {
			n += rows[i].Stats[v].Instructions
		}
	}
	return n
}

// Profiles aggregates rows into per-class locality profiles, sorted by
// class name. Within a class, rows are accumulated in fingerprint order —
// not corpus order — so the floating-point sums are invariant under any
// permutation of the input.
func Profiles(rows []Row) []report.CorpusClassProfile {
	byClass := make(map[string][]*Row)
	for i := range rows {
		c := rows[i].Kernel.Class.String()
		byClass[c] = append(byClass[c], &rows[i])
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	out := make([]report.CorpusClassProfile, 0, len(classes))
	for _, c := range classes {
		group := byClass[c]
		sort.Slice(group, func(i, j int) bool {
			return group[i].Kernel.Fingerprint < group[j].Kernel.Fingerprint
		})
		p := report.CorpusClassProfile{Class: c, Kernels: len(group)}
		versions := core.Versions()
		p.Versions = make([]report.CorpusVersionProfile, len(versions))
		for vi, v := range versions {
			vp := &p.Versions[vi]
			vp.Version = v.String()
			var l1, l2, tlbAcc, l1Miss, l2Miss, tlbMiss, bufProbes, bufHits, spatYes, spatNo uint64
			improv := 0.0
			for _, r := range group {
				s := &r.Stats[v]
				vp.Cycles += s.Cycles
				vp.Instructions += s.Instructions
				vp.MemOps += s.MemOps
				l1 += s.L1.Accesses
				l1Miss += s.L1.Misses
				l2 += s.L2.Accesses
				l2Miss += s.L2.Misses
				tlbAcc += s.TLB.Accesses
				tlbMiss += s.TLB.Misses
				bufProbes += s.Buffer.Probes
				bufHits += s.Buffer.Hits
				spatYes += s.MAT.SpatialYes
				spatNo += s.MAT.SpatialNo
				improv += r.Improv[v]
			}
			vp.L1MissPct = pct(l1Miss, l1)
			vp.L2MissPct = pct(l2Miss, l2)
			vp.TLBMissPct = pct(tlbMiss, tlbAcc)
			vp.BufferHitPct = pct(bufHits, bufProbes)
			vp.SLDTSpatialPct = pct(spatYes, spatYes+spatNo)
			vp.AvgImprovPct = improv / float64(len(group))
			p.Events += vp.Instructions
		}
		for _, r := range group {
			p.SoftwareLoops += r.Regions.SoftwareLoops
			p.HardwareLoops += r.Regions.HardwareLoops
			p.MixedLoops += r.Regions.MixedLoops
			p.MarkersInserted += r.Regions.Inserted
			p.MarkersEliminated += r.Regions.Eliminated
		}
		out = append(out, p)
	}
	return out
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// SpotCheckResult is one oracle lockstep verdict.
type SpotCheckResult struct {
	Kernel  synth.Kernel
	Version core.Version
	Mech    sim.HWKind
	Err     error
}

// Name renders the checked cell.
func (r SpotCheckResult) Name() string {
	return fmt.Sprintf("%s/%s/%s", r.Kernel.Name(), r.Version, r.Mech)
}

// SampleIndices picks the deterministic oracle sample: min(sample, n)
// indices spread evenly across the corpus.
func SampleIndices(n, sample int) []int {
	if sample > n {
		sample = n
	}
	if sample <= 0 {
		return nil
	}
	out := make([]int, sample)
	for i := range out {
		out[i] = i * n / sample
	}
	return out
}

// SpotCheck runs a deterministic sample of the corpus through the
// differential oracle: each sampled kernel is simulated once with the
// optimized engine and the naive reference model in lockstep
// (oracle.Shadow), on a (version, mechanism) cell chosen from its
// fingerprint bytes so the sample covers the matrix without any RNG.
func SpotCheck(kernels []synth.Kernel, sample int, o core.Options, workers int) []SpotCheckResult {
	idx := SampleIndices(len(kernels), sample)
	return parallel.Map(workers, len(idx), func(i int) SpotCheckResult {
		k := kernels[idx[i]]
		r := SpotCheckResult{Kernel: k}
		// fingerprint is 64 hex chars; two bytes of it pick the cell.
		r.Version = core.Versions()[int(k.Fingerprint[0])%core.NumVersions]
		r.Mech = sim.HWBypass
		if k.Fingerprint[1]%2 == 1 {
			r.Mech = sim.HWVictim
		}
		co := o
		co.Mechanism = r.Mech
		prog, _, _ := core.Prepare(k.Build, r.Version, co)
		s := oracle.NewShadow(co.Machine, core.SimOptions(r.Version, co))
		loopir.Run(prog, s)
		_, r.Err = s.Finish()
		return r
	})
}

// Divergences counts the failed spot checks.
func Divergences(results []SpotCheckResult) int {
	n := 0
	for _, r := range results {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// header records the corpus a run swept: the parameters that regenerate
// it and what synthesis produced. Every corpus-derived artifact embeds it.
func header(spec Spec, st BuildStats, kernels []synth.Kernel, o core.Options) report.CorpusHeader {
	fams := make([]string, len(spec.Families))
	for i, f := range spec.Families {
		fams[i] = f.Name()
	}
	return report.CorpusHeader{
		Families:          fams,
		Requested:         spec.N,
		Kernels:           len(kernels),
		Duplicates:        st.Duplicates,
		BaseSeed:          spec.BaseSeed,
		Machine:           o.Machine.Name,
		Mechanism:         o.Mechanism.String(),
		CorpusFingerprint: Fingerprint(kernels),
	}
}

// Artifact assembles the corpus-profile artifact from a completed run.
func Artifact(spec Spec, st BuildStats, kernels []synth.Kernel, rows []Row, checks []SpotCheckResult, o core.Options) *report.CorpusJSON {
	return &report.CorpusJSON{
		Schema:            report.CorpusSchema,
		CorpusHeader:      header(spec, st, kernels, o),
		OracleSample:      len(checks),
		OracleDivergences: Divergences(checks),
		Profiles:          Profiles(rows),
	}
}
