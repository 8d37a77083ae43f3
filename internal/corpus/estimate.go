package corpus

import (
	"sort"

	"selcache/internal/core"
	"selcache/internal/locality"
	"selcache/internal/parallel"
	"selcache/internal/report"
	"selcache/internal/workloads/synth"
)

// EstimateRow is one kernel's static estimates: the symbolic locality
// analysis of every program variant (five simulated versions plus PCOT).
type EstimateRow struct {
	Kernel   synth.Kernel
	Variants []core.VariantEstimate
}

// Estimates analyzes every kernel on the bounded worker pool. Each cell
// is a pure function of (kernel, machine), so results are identical for
// any worker count.
func Estimates(kernels []synth.Kernel, o core.Options, workers int) []EstimateRow {
	return parallel.Map(workers, len(kernels), func(i int) EstimateRow {
		return EstimateRow{Kernel: kernels[i], Variants: core.EstimateVariants(kernels[i].Build, o)}
	})
}

// accumulator gathers |predicted − simulated| L1 miss-percentage errors
// for one version over one kernel group.
type accumulator struct {
	n                int
	sumAbs, max, sum float64
}

func (a *accumulator) add(errPct float64) {
	abs := errPct
	if abs < 0 {
		abs = -abs
	}
	a.n++
	a.sumAbs += abs
	a.sum += errPct
	if abs > a.max {
		a.max = abs
	}
}

func (a *accumulator) result(version string) report.EstimateVersionAccuracy {
	out := report.EstimateVersionAccuracy{Version: version, Kernels: a.n, MaxAbsErrPct: a.max}
	if a.n > 0 {
		out.MeanAbsErrPct = a.sumAbs / float64(a.n)
		out.BiasPct = a.sum / float64(a.n)
	}
	return out
}

// EstimateArtifact scores the estimator against the simulator and
// assembles the selcache-estimate/v1 artifact. rows and ests are matched
// by kernel fingerprint, and all float accumulation runs over classes in
// sorted order and kernels in fingerprint order, so the artifact is
// invariant under any permutation of the corpus. The PCOT variant is
// deliberately absent: the simulator never runs it, so there is no truth
// to score it against.
func EstimateArtifact(spec Spec, st BuildStats, kernels []synth.Kernel, rows []Row, ests []EstimateRow, o core.Options) *report.EstimateJSON {
	simByFP := make(map[string]*Row, len(rows))
	for i := range rows {
		simByFP[rows[i].Kernel.Fingerprint] = &rows[i]
	}
	byClass := make(map[string][]*EstimateRow)
	for i := range ests {
		c := ests[i].Kernel.Class.String()
		byClass[c] = append(byClass[c], &ests[i])
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	art := &report.EstimateJSON{
		Schema:       report.EstimateSchema,
		CorpusHeader: header(spec, st, kernels, o),
	}

	versions := core.Versions()
	overall := make([]accumulator, len(versions))
	reasons := make(map[string]bool)
	for _, c := range classes {
		group := byClass[c]
		sort.Slice(group, func(i, j int) bool {
			return group[i].Kernel.Fingerprint < group[j].Kernel.Fingerprint
		})
		ca := report.EstimateClassAccuracy{Class: c, Kernels: len(group)}
		perV := make([]accumulator, len(versions))
		for _, er := range group {
			switch er.Variants[0].Estimate.Verdict {
			case locality.VerdictExact:
				ca.Exact++
			case locality.VerdictBounded:
				ca.Bounded++
			default:
				ca.Declined++
				if r := er.Variants[0].Estimate.Reason; r != "" {
					reasons[r] = true
				}
			}
			sim := simByFP[er.Kernel.Fingerprint]
			if sim == nil {
				continue
			}
			// The first NumVersions variants are the simulated versions in
			// Versions() order; pcot trails and has no simulated truth.
			for vi := range versions {
				est := er.Variants[vi].Estimate
				if est.Verdict == locality.VerdictDeclined {
					continue
				}
				l1 := sim.Stats[versions[vi]].L1
				truth := 0.0
				if l1.Accesses > 0 {
					truth = 100 * float64(l1.Misses) / float64(l1.Accesses)
				}
				errPct := est.L1.MissPct - truth
				perV[vi].add(errPct)
				overall[vi].add(errPct)
			}
		}
		for vi, v := range versions {
			ca.Versions = append(ca.Versions, perV[vi].result(v.String()))
		}
		art.Exact += ca.Exact
		art.Bounded += ca.Bounded
		art.Declined += ca.Declined
		art.Classes = append(art.Classes, ca)
	}
	for vi, v := range versions {
		art.Overall = append(art.Overall, overall[vi].result(v.String()))
	}
	for r := range reasons {
		art.DeclineReasons = append(art.DeclineReasons, r)
	}
	sort.Strings(art.DeclineReasons)
	return art
}
