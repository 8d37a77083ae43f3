package corpus

import (
	"path/filepath"
	"reflect"
	"testing"

	"selcache/internal/core"
	"selcache/internal/locality"
	"selcache/internal/report"
)

// TestEstimateArtifactMetamorphic: the accuracy artifact — floating-point
// fields included — must be exactly identical under any permutation of the
// corpus and under any worker count, because accumulation runs over sorted
// classes and fingerprint-ordered kernels.
func TestEstimateArtifactMetamorphic(t *testing.T) {
	spec := goldenSpec()
	kernels, st := buildGolden(t)
	o := core.DefaultOptions()
	rows := Sweep(kernels, o, 0)
	for i := range rows {
		for v := range rows[i].Stats {
			rows[i].Stats[v].WallNanos = 0
		}
	}
	ests := Estimates(kernels, o, 1)
	base := EstimateArtifact(spec, st, kernels, rows, ests, o)
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}

	pooled := Estimates(kernels, o, 4)
	for i := range ests {
		if !reflect.DeepEqual(ests[i].Variants, pooled[i].Variants) {
			t.Fatalf("kernel %s: pooled estimates differ from serial", ests[i].Kernel.Name())
		}
	}

	revE := make([]EstimateRow, len(ests))
	for i := range ests {
		revE[len(ests)-1-i] = ests[i]
	}
	got := EstimateArtifact(spec, st, kernels, reverse(rows), revE, o)
	if !reflect.DeepEqual(base, got) {
		t.Fatal("permuting the corpus changed the accuracy artifact")
	}
}

// TestEstimateArtifactCoverage: the estimator must answer every affine and
// mostly-affine kernel in the golden corpus — declines are reserved for
// irregular references, and each must carry a reason.
func TestEstimateArtifactCoverage(t *testing.T) {
	kernels, _ := buildGolden(t)
	o := core.DefaultOptions()
	ests := Estimates(kernels, o, 0)
	for i := range ests {
		est := ests[i].Variants[0].Estimate
		mix := ests[i].Kernel.Class.Mix.String()
		switch est.Verdict {
		case locality.VerdictDeclined:
			if est.Reason == "" {
				t.Errorf("%s: declined without a reason", ests[i].Kernel.Name())
			}
			if mix == "affine" {
				t.Errorf("%s: declined an affine kernel: %s", ests[i].Kernel.Name(), est.Reason)
			}
		case locality.VerdictExact, locality.VerdictBounded:
			if est.Accesses <= 0 {
				t.Errorf("%s: %s verdict with %g accesses", ests[i].Kernel.Name(), est.Verdict, est.Accesses)
			}
		default:
			t.Errorf("%s: unknown verdict %q", ests[i].Kernel.Name(), est.Verdict)
		}
	}
}

func TestEstimateArtifactValidateRejects(t *testing.T) {
	spec := goldenSpec()
	kernels, st := buildGolden(t)
	kernels = kernels[:4]
	o := core.DefaultOptions()
	rows := Sweep(kernels, o, 0)
	ests := Estimates(kernels, o, 0)
	art := EstimateArtifact(spec, st, kernels, rows, ests, o)
	art.Requested = len(kernels)
	if err := art.Validate(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*report.EstimateJSON)
	}{
		{"wrong schema", func(e *report.EstimateJSON) { e.Schema = "nope/v9" }},
		{"verdicts do not sum", func(e *report.EstimateJSON) { e.Exact++ }},
		{"unsorted classes", func(e *report.EstimateJSON) {
			e.Classes[0].Class, e.Classes[1].Class = e.Classes[1].Class, e.Classes[0].Class
		}},
		{"mean exceeds max", func(e *report.EstimateJSON) {
			e.Overall[0].MeanAbsErrPct = e.Overall[0].MaxAbsErrPct + 1
		}},
		{"truncated fingerprint", func(e *report.EstimateJSON) { e.CorpusFingerprint = "abc" }},
	}
	for _, tc := range cases {
		bad := *art
		bad.Classes = append([]report.EstimateClassAccuracy(nil), art.Classes...)
		bad.Overall = append([]report.EstimateVersionAccuracy(nil), art.Overall...)
		tc.mutate(&bad)
		if _, err := report.Encode(&bad); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}

	if _, err := report.Load[report.EstimateJSON](filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loaded a missing artifact")
	}
}
