package report

import (
	"fmt"
	"math"
)

// EstimateSchema identifies the estimator-accuracy artifact emitted by
// `cmd/corpus -estimate` (committed as ESTIMATE_smoke.json at the repo
// root for the smoke-sized corpus). It compares the symbolic locality
// estimator's predictions against the simulator over a synthesized
// corpus.
//
// Every field is deterministic — estimates are pure functions of the
// kernel and machine, simulations carry no wall times here — so
// regenerating from the same corpus parameters is byte-identical and
// `make artifacts` compares the committed file against a fresh
// regeneration.
const EstimateSchema = "selcache-estimate/v1"

// EstimateVersionAccuracy compares the estimator against the simulator
// for one program version over one group of kernels, on the L1 miss
// ratio (the estimator's headline number). Declined kernels are excluded
// — they carry no prediction to score.
type EstimateVersionAccuracy struct {
	Version string `json:"version"`
	// Kernels is how many kernels contributed a prediction.
	Kernels int `json:"kernels"`
	// MeanAbsErrPct and MaxAbsErrPct are over |predicted − simulated| L1
	// miss percentage points; BiasPct is the signed mean (positive:
	// the estimator predicts more misses than the simulator observes).
	MeanAbsErrPct float64 `json:"l1_mean_abs_err_pct"`
	MaxAbsErrPct  float64 `json:"l1_max_abs_err_pct"`
	BiasPct       float64 `json:"l1_bias_pct"`
}

// EstimateClassAccuracy is one family's (equivalently, one class tuple's)
// verdict split and per-version accuracy.
type EstimateClassAccuracy struct {
	Class   string `json:"class"`
	Kernels int    `json:"kernels"`
	// Verdicts of the base-program estimate per kernel.
	Exact    int `json:"exact"`
	Bounded  int `json:"bounded"`
	Declined int `json:"declined"`

	Versions []EstimateVersionAccuracy `json:"versions"`
}

// EstimateJSON is the estimator-accuracy artifact: what corpus the
// estimator was scored on, the verdict totals, and per-class plus overall
// accuracy against the simulator.
type EstimateJSON struct {
	Schema string `json:"schema"`
	CorpusHeader

	// Verdict totals over the corpus (base-program estimates).
	Exact    int `json:"exact"`
	Bounded  int `json:"bounded"`
	Declined int `json:"declined"`
	// DeclineReasons is the sorted set of distinct reasons the estimator
	// gave for declining; empty when nothing was declined.
	DeclineReasons []string `json:"decline_reasons,omitempty"`

	// Overall aggregates accuracy across the whole corpus; Classes splits
	// it per family tuple, sorted by class name.
	Overall []EstimateVersionAccuracy `json:"overall"`
	Classes []EstimateClassAccuracy   `json:"classes"`
}

// SchemaID implements Artifact.
func (*EstimateJSON) SchemaID() string { return EstimateSchema }

// Validate checks the artifact's structural invariants.
func (e *EstimateJSON) Validate() error {
	if err := e.CorpusHeader.validate(); err != nil {
		return err
	}
	if e.Exact < 0 || e.Bounded < 0 || e.Declined < 0 || e.Exact+e.Bounded+e.Declined != e.Kernels {
		return fmt.Errorf("verdicts %d+%d+%d do not sum to %d kernels", e.Exact, e.Bounded, e.Declined, e.Kernels)
	}
	if e.Declined > 0 && len(e.DeclineReasons) == 0 {
		return fmt.Errorf("%d declined kernels but no decline reasons", e.Declined)
	}
	if len(e.Overall) == 0 {
		return fmt.Errorf("no overall accuracy")
	}
	if err := validateAccuracies("overall", e.Overall); err != nil {
		return err
	}
	if len(e.Classes) == 0 {
		return fmt.Errorf("no class accuracies")
	}
	kernels := 0
	seen := make(map[string]bool, len(e.Classes))
	prev := ""
	for i, c := range e.Classes {
		switch {
		case c.Class == "":
			return fmt.Errorf("class %d has empty name", i)
		case seen[c.Class]:
			return fmt.Errorf("duplicate class %q", c.Class)
		case c.Class < prev:
			return fmt.Errorf("classes not sorted (%q after %q)", c.Class, prev)
		case c.Kernels < 1:
			return fmt.Errorf("class %q has %d kernels", c.Class, c.Kernels)
		case c.Exact+c.Bounded+c.Declined != c.Kernels:
			return fmt.Errorf("class %q verdicts %d+%d+%d do not sum to %d",
				c.Class, c.Exact, c.Bounded, c.Declined, c.Kernels)
		}
		seen[c.Class] = true
		prev = c.Class
		kernels += c.Kernels
		if err := validateAccuracies("class "+c.Class, c.Versions); err != nil {
			return err
		}
	}
	if kernels != e.Kernels {
		return fmt.Errorf("classes cover %d kernels, header says %d", kernels, e.Kernels)
	}
	return nil
}

func validateAccuracies(where string, vs []EstimateVersionAccuracy) error {
	for _, v := range vs {
		if v.Version == "" {
			return fmt.Errorf("%s has an unnamed version accuracy", where)
		}
		if v.Kernels < 0 {
			return fmt.Errorf("%s version %q covers %d kernels", where, v.Version, v.Kernels)
		}
		if v.MeanAbsErrPct < 0 || v.MaxAbsErrPct < 0 {
			return fmt.Errorf("%s version %q negative error", where, v.Version)
		}
		// The mean of absolute errors cannot exceed the max, and the
		// signed bias cannot exceed the mean in magnitude.
		const eps = 1e-9
		if v.MeanAbsErrPct > v.MaxAbsErrPct+eps || math.Abs(v.BiasPct) > v.MeanAbsErrPct+eps {
			return fmt.Errorf("%s version %q inconsistent errors (mean %g, max %g, bias %g)",
				where, v.Version, v.MeanAbsErrPct, v.MaxAbsErrPct, v.BiasPct)
		}
	}
	return nil
}
