package report

import "fmt"

// CorpusSchema identifies the machine-readable corpus-profile artifact
// emitted by `cmd/corpus -out` (committed as CORPUS_smoke.json at the repo
// root for the smoke-sized corpus).
//
// Every field here is deterministic — no wall times — so regenerating an
// artifact from the same corpus parameters is byte-identical, and `make
// artifacts` compares the committed file against a fresh regeneration.
const CorpusSchema = "selcache-corpus/v1"

// CorpusHeader identifies the synthesized corpus a corpus-derived artifact
// (corpus, estimate, energy) was computed over: the parameters -verify
// regenerates it from, plus what synthesis produced. Each of those types
// embeds it right after its schema field, so these keys lead the file.
type CorpusHeader struct {
	// Families lists the family names the corpus drew from, in draw
	// order; Requested is the kernel count asked for, Kernels the
	// fingerprint-distinct count actually swept, Duplicates how many
	// draws were dropped as fingerprint collisions.
	Families   []string `json:"families"`
	Requested  int      `json:"requested"`
	Kernels    int      `json:"kernels"`
	Duplicates int      `json:"duplicates"`
	BaseSeed   uint64   `json:"base_seed"`
	Machine    string   `json:"machine"`
	Mechanism  string   `json:"mechanism"`
	// CorpusFingerprint is the SHA-256 over the sorted kernel
	// fingerprints: two corpora with equal values contain identical
	// kernels.
	CorpusFingerprint string `json:"corpus_fingerprint"`
}

// Corpus returns the header itself, so code generic over the
// corpus-derived artifacts can reach it.
func (h *CorpusHeader) Corpus() *CorpusHeader { return h }

func (h *CorpusHeader) validate() error {
	switch {
	case len(h.Families) == 0:
		return fmt.Errorf("no families")
	case h.Kernels < 1:
		return fmt.Errorf("%d kernels", h.Kernels)
	case h.Requested < 1:
		return fmt.Errorf("requested %d", h.Requested)
	case h.Duplicates < 0:
		return fmt.Errorf("negative duplicates %d", h.Duplicates)
	case len(h.CorpusFingerprint) != 64:
		return fmt.Errorf("corpus fingerprint %q is not a sha256 hex digest", h.CorpusFingerprint)
	}
	return nil
}

// CorpusVersionProfile is one simulated version's aggregate locality
// profile over every kernel of a class: counter totals plus the derived
// rates, accumulated in fingerprint order so the floats are
// order-independent.
type CorpusVersionProfile struct {
	Version      string  `json:"version"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	MemOps       uint64  `json:"mem_ops"`
	L1MissPct    float64 `json:"l1_miss_pct"`
	L2MissPct    float64 `json:"l2_miss_pct"`
	TLBMissPct   float64 `json:"tlb_miss_pct"`
	// BufferHitPct is the bypass-buffer (MAT mechanism) hit rate;
	// SLDTSpatialPct is the share of SLDT decisions that predicted
	// spatial locality. Both are zero for versions that never arm the
	// mechanism.
	BufferHitPct   float64 `json:"buffer_hit_pct"`
	SLDTSpatialPct float64 `json:"sldt_spatial_pct"`
	// AvgImprovPct is the arithmetic-mean percentage cycle improvement
	// over the base version across the class's kernels.
	AvgImprovPct float64 `json:"avg_improv_pct"`
}

// CorpusClassProfile aggregates one class tuple's kernels.
type CorpusClassProfile struct {
	Class   string `json:"class"`
	Kernels int    `json:"kernels"`
	// Events is the total simulated instructions across every version
	// run of the class.
	Events uint64 `json:"events"`
	// Region-detection totals from the selective version's compile.
	SoftwareLoops     int `json:"software_loops"`
	HardwareLoops     int `json:"hardware_loops"`
	MixedLoops        int `json:"mixed_loops"`
	MarkersInserted   int `json:"markers_inserted"`
	MarkersEliminated int `json:"markers_eliminated"`

	Versions []CorpusVersionProfile `json:"versions"`
}

// CorpusJSON is the corpus-profile artifact: what was synthesized, how it
// was swept and spot-checked, and the per-class locality profiles.
type CorpusJSON struct {
	Schema string `json:"schema"`
	CorpusHeader
	// OracleSample is how many kernels went through differential-oracle
	// lockstep; OracleDivergences how many diverged (0 on a clean run).
	OracleSample      int `json:"oracle_sample"`
	OracleDivergences int `json:"oracle_divergences"`

	Profiles []CorpusClassProfile `json:"profiles"`
}

// SchemaID implements Artifact.
func (*CorpusJSON) SchemaID() string { return CorpusSchema }

// Validate checks the artifact's structural invariants.
func (c *CorpusJSON) Validate() error {
	if err := c.CorpusHeader.validate(); err != nil {
		return err
	}
	if c.OracleSample < 0 || c.OracleDivergences < 0 || c.OracleDivergences > c.OracleSample {
		return fmt.Errorf("oracle sample %d / divergences %d", c.OracleSample, c.OracleDivergences)
	}
	if len(c.Profiles) == 0 {
		return fmt.Errorf("no class profiles")
	}
	kernels := 0
	seen := make(map[string]bool, len(c.Profiles))
	prev := ""
	for i, p := range c.Profiles {
		switch {
		case p.Class == "":
			return fmt.Errorf("profile %d has empty class", i)
		case seen[p.Class]:
			return fmt.Errorf("duplicate class %q", p.Class)
		case p.Class < prev:
			return fmt.Errorf("classes not sorted (%q after %q)", p.Class, prev)
		case p.Kernels < 1:
			return fmt.Errorf("class %q has %d kernels", p.Class, p.Kernels)
		case p.Events == 0:
			return fmt.Errorf("class %q has zero events", p.Class)
		case len(p.Versions) == 0:
			return fmt.Errorf("class %q has no version profiles", p.Class)
		}
		seen[p.Class] = true
		prev = p.Class
		kernels += p.Kernels
		for _, v := range p.Versions {
			if v.Version == "" {
				return fmt.Errorf("class %q has an unnamed version profile", p.Class)
			}
			for _, r := range []struct {
				name string
				pct  float64
			}{
				{"l1_miss_pct", v.L1MissPct}, {"l2_miss_pct", v.L2MissPct},
				{"tlb_miss_pct", v.TLBMissPct}, {"buffer_hit_pct", v.BufferHitPct},
				{"sldt_spatial_pct", v.SLDTSpatialPct},
			} {
				if r.pct < 0 || r.pct > 100 {
					return fmt.Errorf("class %q version %q %s %g outside [0, 100]", p.Class, v.Version, r.name, r.pct)
				}
			}
		}
	}
	if kernels != c.Kernels {
		return fmt.Errorf("profiles cover %d kernels, header says %d", kernels, c.Kernels)
	}
	return nil
}
