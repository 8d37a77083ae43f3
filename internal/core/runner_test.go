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

// TestMechanismBlindRunsMatch is the premise the sweep matrix shares runs
// on: a mechanism-blind version replays to equal statistics under both
// mechanisms, for one kernel per class on every experiment configuration,
// at the defaults and with EHC, the way memo and the energy model on. Base
// and PureSoftware must be the blind ones; PureHardware and Combined, whose
// mechanism is always on, must tell the two mechanisms apart.
func TestMechanismBlindRunsMatch(t *testing.T) {
	for _, v := range Versions() {
		if want := v == Base || v == PureSoftware; v.MechanismBlind() != want {
			t.Errorf("%v: MechanismBlind() = %v, want %v", v, !want, want)
		}
	}
	var r Runner
	for _, w := range workloads.TinyGolden() {
		for _, cfg := range sim.ExperimentConfigs() {
			for _, extras := range []bool{false, true} {
				o := DefaultOptions()
				o.Machine = cfg
				if extras {
					o.Policy, o.WayMemo, o.Energy = sim.PolicyEHC, true, true
				}
				for _, v := range []Version{Base, PureSoftware, PureHardware, Combined} {
					tr, _, _ := RecordTrace(w.Build, v, o)
					o.Mechanism = sim.HWBypass
					bp := r.Replay(tr, v, o).Sim
					o.Mechanism = sim.HWVictim
					vc := r.Replay(tr, v, o).Sim
					bp.WallNanos, vc.WallNanos = 0, 0
					if (bp == vc) != v.MechanismBlind() {
						t.Errorf("%s/%s/extras=%v/%v: bypass and victim runs equal = %v\nbypass: %+v\nvictim: %+v",
							w.Name, cfg.Name, extras, v, bp == vc, bp, vc)
					}
				}
			}
		}
	}
}
