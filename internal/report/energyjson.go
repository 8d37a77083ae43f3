package report

import "fmt"

// EnergySchema identifies the machine-readable energy-model artifact
// emitted by `cmd/corpus -energy -out` (committed as ENERGY_smoke.json at
// the repo root for the smoke-sized corpus).
//
// Like the corpus artifact, every field is deterministic — the energy
// model is integer picojoules computed from final counters, and the
// per-combo aggregates are uint64 sums — so regenerating from the same
// parameters is byte-identical and CI diffs the committed file against a
// fresh regeneration (`make artifacts`).
const EnergySchema = "selcache-energy/v1"

// EnergyCombo is one (replacement policy, way memoization) cell of the
// mechanism-axis sweep: base-version runs of every corpus kernel with the
// energy model enabled, counters and picojoules summed over the kernels.
type EnergyCombo struct {
	Policy  string `json:"policy"`
	WayMemo bool   `json:"waymemo"`

	// Cycles and misses witness the policy axis (EHC changes replacement
	// decisions; way memoization must not).
	Cycles   uint64 `json:"cycles"`
	L1Misses uint64 `json:"l1_misses"`
	L2Misses uint64 `json:"l2_misses"`

	// The energy breakdown in picojoules, per internal/energy.
	L1TagPJ  uint64 `json:"l1_tag_pj"`
	L1DataPJ uint64 `json:"l1_data_pj"`
	L1FillPJ uint64 `json:"l1_fill_pj"`
	L2TagPJ  uint64 `json:"l2_tag_pj"`
	L2DataPJ uint64 `json:"l2_data_pj"`
	L2FillPJ uint64 `json:"l2_fill_pj"`
	MemoPJ   uint64 `json:"memo_pj"`
	TLBPJ    uint64 `json:"tlb_pj"`
	AuxPJ    uint64 `json:"aux_pj"`
	DRAMPJ   uint64 `json:"dram_pj"`
	TotalPJ  uint64 `json:"total_pj"`

	// Way-memo effectiveness: hits across both levels and the tag reads
	// those hits skipped. Zero when the memo is off.
	WayMemoHits     uint64 `json:"waymemo_hits"`
	TagReadsAvoided uint64 `json:"tag_reads_avoided"`
}

// EnergyJSON is the energy-model artifact: the corpus it swept (the
// header -verify regenerates it from) plus the four (policy, waymemo)
// combo aggregates.
type EnergyJSON struct {
	Schema string `json:"schema"`
	CorpusHeader

	Combos []EnergyCombo `json:"combos"`
}

// SchemaID implements Artifact.
func (*EnergyJSON) SchemaID() string { return EnergySchema }

// Validate checks the artifact's structural invariants: the canonical
// combo grid, component/total consistency, and the way-memo axis actually
// biting (memo-on combos avoid tag reads, memo-off combos report none).
func (e *EnergyJSON) Validate() error {
	if err := e.CorpusHeader.validate(); err != nil {
		return err
	}
	want := []struct {
		policy  string
		waymemo bool
	}{
		{"lru", false}, {"lru", true}, {"ehc", false}, {"ehc", true},
	}
	if len(e.Combos) != len(want) {
		return fmt.Errorf("%d combos, want %d", len(e.Combos), len(want))
	}
	for i, c := range e.Combos {
		if c.Policy != want[i].policy || c.WayMemo != want[i].waymemo {
			return fmt.Errorf("combo %d is (%s, waymemo=%v), want (%s, waymemo=%v)",
				i, c.Policy, c.WayMemo, want[i].policy, want[i].waymemo)
		}
		sum := c.L1TagPJ + c.L1DataPJ + c.L1FillPJ + c.L2TagPJ + c.L2DataPJ + c.L2FillPJ +
			c.MemoPJ + c.TLBPJ + c.AuxPJ + c.DRAMPJ
		if sum != c.TotalPJ {
			return fmt.Errorf("combo %d components sum to %d pJ, total says %d", i, sum, c.TotalPJ)
		}
		if c.TotalPJ == 0 || c.Cycles == 0 {
			return fmt.Errorf("combo %d is empty (total %d pJ, %d cycles)", i, c.TotalPJ, c.Cycles)
		}
		if c.WayMemo {
			if c.WayMemoHits == 0 || c.TagReadsAvoided == 0 || c.MemoPJ == 0 {
				return fmt.Errorf("combo %d has way memo on but no memo activity", i)
			}
		} else if c.WayMemoHits != 0 || c.TagReadsAvoided != 0 || c.MemoPJ != 0 {
			return fmt.Errorf("combo %d has way memo off but reports memo activity", i)
		}
	}
	// Way memoization is timing-neutral by construction: within a policy,
	// the memo-on combo must reproduce the memo-off cycles and misses.
	for i := 0; i < len(e.Combos); i += 2 {
		off, on := e.Combos[i], e.Combos[i+1]
		if off.Cycles != on.Cycles || off.L1Misses != on.L1Misses || off.L2Misses != on.L2Misses {
			return fmt.Errorf("way memo perturbed %s timing (%d/%d cycles, L1 %d/%d, L2 %d/%d)",
				off.Policy, off.Cycles, on.Cycles, off.L1Misses, on.L1Misses, off.L2Misses, on.L2Misses)
		}
	}
	return nil
}
