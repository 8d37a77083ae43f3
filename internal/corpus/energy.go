package corpus

import (
	"selcache/internal/core"
	"selcache/internal/parallel"
	"selcache/internal/report"
	"selcache/internal/sim"
	"selcache/internal/workloads/synth"
)

// energyCombos is the canonical (policy, waymemo) grid of the energy
// artifact, in the order report.EnergyJSON.Validate pins: within each
// policy the memo-off cell precedes the memo-on cell, so the validator
// can check way memoization is timing-neutral by comparing neighbours.
var energyCombos = []struct {
	name    string
	policy  sim.PolicyKind
	waymemo bool
}{
	{"lru", sim.PolicyLRU, false},
	{"lru", sim.PolicyLRU, true},
	{"ehc", sim.PolicyEHC, false},
	{"ehc", sim.PolicyEHC, true},
}

// EnergyArtifact sweeps the corpus across the mechanism-axis grid —
// {LRU, EHC} × {way memo off, on} with the energy model enabled — and
// aggregates each combo into the selcache-energy/v1 artifact. Only the
// base program version runs: the energy axis is about the memory system,
// not the restructuring mechanisms, and one version keeps the smoke
// artifact cheap. Every aggregate is an integer sum over kernels, so the
// result is order-independent and byte-identical across worker counts.
func EnergyArtifact(spec Spec, st BuildStats, kernels []synth.Kernel, o core.Options, workers int) *report.EnergyJSON {
	e := &report.EnergyJSON{
		Schema:       report.EnergySchema,
		CorpusHeader: header(spec, st, kernels, o),
	}
	// One fan-out over the (combo × kernel) grid, so each worker's machine
	// carries across combos; stats are summed per combo below.
	stats := parallel.MapWith(workers, len(energyCombos)*len(kernels), func(r *core.Runner, i int) sim.RunStats {
		combo := energyCombos[i/len(kernels)]
		oc := o
		oc.Policy = combo.policy
		oc.WayMemo = combo.waymemo
		oc.Energy = true
		return r.Run(kernels[i%len(kernels)].Build, core.Base, oc).Sim
	})
	for ci, combo := range energyCombos {
		c := report.EnergyCombo{Policy: combo.name, WayMemo: combo.waymemo}
		for _, s := range stats[ci*len(kernels) : (ci+1)*len(kernels)] {
			c.Cycles += s.Cycles
			c.L1Misses += s.L1.Misses
			c.L2Misses += s.L2.Misses

			c.L1TagPJ += s.Energy.L1TagPJ
			c.L1DataPJ += s.Energy.L1DataPJ
			c.L1FillPJ += s.Energy.L1FillPJ
			c.L2TagPJ += s.Energy.L2TagPJ
			c.L2DataPJ += s.Energy.L2DataPJ
			c.L2FillPJ += s.Energy.L2FillPJ
			c.MemoPJ += s.Energy.MemoPJ
			c.TLBPJ += s.Energy.TLBPJ
			c.AuxPJ += s.Energy.AuxPJ
			c.DRAMPJ += s.Energy.DRAMPJ
			c.TotalPJ += s.Energy.TotalPJ

			c.WayMemoHits += s.WayMemo1.Hits + s.WayMemo2.Hits
			c.TagReadsAvoided += s.Energy.L1TagReadsAvoided + s.Energy.L2TagReadsAvoided
		}
		e.Combos = append(e.Combos, c)
	}
	return e
}
