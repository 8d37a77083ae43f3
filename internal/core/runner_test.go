package core

import (
	"testing"

	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// TestRunnerMatchesFreshMachine carries one Runner through every experiment
// configuration, both mechanisms and all five versions, on the replay path
// and on the live path, and requires every result to equal a fresh
// machine's (ReplayTrace, Run). Odd configurations switch EHC, the way memo
// and the energy model on, so the carried machine also crosses policy and
// memo changes.
func TestRunnerMatchesFreshMachine(t *testing.T) {
	ws := workloads.TinyGolden()
	var replayer, runner Runner
	for ci, cfg := range sim.ExperimentConfigs() {
		w := ws[ci%len(ws)]
		for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
			o := DefaultOptions()
			o.Machine, o.Mechanism = cfg, mech
			if ci%2 == 1 {
				o.Policy, o.WayMemo, o.Energy = sim.PolicyEHC, true, true
			}
			for _, v := range Versions() {
				name := cfg.Name + "/" + mech.String() + "/" + w.Name + "/" + v.String()
				tr, _, _ := RecordTrace(w.Build, v, o)
				got, want := replayer.Replay(tr, v, o).Sim, ReplayTrace(tr, v, o).Sim
				got.WallNanos, want.WallNanos = 0, 0
				if got != want {
					t.Fatalf("%s: replay on a carried runner differs from a fresh machine\ncarried: %+v\nfresh:   %+v", name, got, want)
				}
				if got.MemOps == 0 || got.L1.Misses == 0 {
					t.Fatalf("%s: stream exercised nothing: %+v", name, got)
				}
				live, fresh := runner.Run(w.Build, v, o), Run(w.Build, v, o)
				live.Sim.WallNanos, fresh.Sim.WallNanos = 0, 0
				if live.Sim != fresh.Sim || live.Regions != fresh.Regions || live.Opt != fresh.Opt {
					t.Fatalf("%s: live run on a carried runner differs from a fresh machine\ncarried: %+v\nfresh:   %+v", name, live.Sim, fresh.Sim)
				}
				if live.Sim != got {
					t.Fatalf("%s: live run differs from its replay", name)
				}
			}
		}
	}
}
