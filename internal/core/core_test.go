package core

import (
	"testing"

	"selcache/internal/loopir"
	"selcache/internal/mem"
	"selcache/internal/regions"
	"selcache/internal/sim"
	"selcache/internal/workloads"
	"selcache/internal/workloads/synth"
)

func TestVersionsAndStrings(t *testing.T) {
	vs := Versions()
	if len(vs) != 5 || vs[0] != Base || vs[4] != Selective {
		t.Fatalf("Versions() = %v", vs)
	}
	names := map[Version]string{
		Base: "base", PureHardware: "pure-hardware", PureSoftware: "pure-software",
		Combined: "combined", Selective: "selective",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q", int(v), v.String())
		}
	}
}

func TestPrepareVariants(t *testing.T) {
	w, _ := workloads.ByName("chaos") // mixed: has both region kinds
	o := DefaultOptions()

	base, rst, ost := Prepare(w.Build, Base, o)
	if regions.MarkerCount(base) != 0 || ost.NestsOptimized != 0 || rst.Inserted != 0 {
		t.Fatal("base variant was transformed")
	}

	hw, _, ost := Prepare(w.Build, PureHardware, o)
	if regions.MarkerCount(hw) != 0 || ost.NestsOptimized != 0 {
		t.Fatal("pure-hardware variant was transformed")
	}

	sw, _, ost := Prepare(w.Build, PureSoftware, o)
	if regions.MarkerCount(sw) != 0 {
		t.Fatal("pure-software variant has markers")
	}
	if ost.NestsOptimized == 0 {
		t.Fatal("pure-software variant not optimized")
	}

	sel, rst, ost := Prepare(w.Build, Selective, o)
	if regions.MarkerCount(sel) == 0 || rst.Inserted == 0 {
		t.Fatal("selective variant has no markers")
	}
	if ost.NestsOptimized == 0 {
		t.Fatal("selective variant not optimized")
	}
}

func TestOptimizedCodeSharedAcrossVersions(t *testing.T) {
	// Section 4.4: pure software, combined and selective use the same
	// optimized code; selective only adds the ON/OFF instructions. The
	// instruction counts must therefore differ exactly by the marker
	// count.
	w, _ := workloads.ByName("tpc-d.q3")
	o := DefaultOptions()
	swProg, _, _ := Prepare(w.Build, PureSoftware, o)
	selProg, _, _ := Prepare(w.Build, Selective, o)
	var sw, sel mem.CountingEmitter
	loopir.Run(swProg, &sw)
	loopir.Run(selProg, &sel)
	if sw.Accesses() != sel.Accesses() {
		t.Fatalf("access counts differ: %d vs %d", sw.Accesses(), sel.Accesses())
	}
	if sel.Instructions-sw.Instructions != sel.Markers {
		t.Fatalf("instruction delta %d != marker count %d",
			sel.Instructions-sw.Instructions, sel.Markers)
	}
	if sel.Markers == 0 {
		t.Fatal("selective q3 executed no markers")
	}
}

func TestBaseEqualsPureHardwareTrace(t *testing.T) {
	// Base and pure-hardware run the same code; only the machine
	// differs.
	w, _ := workloads.ByName("perl")
	o := DefaultOptions()
	b, _, _ := Prepare(w.Build, Base, o)
	h, _, _ := Prepare(w.Build, PureHardware, o)
	var cb, ch mem.CountingEmitter
	loopir.Run(b, &cb)
	loopir.Run(h, &ch)
	if cb != ch {
		t.Fatalf("base and pure-hardware traces differ: %+v vs %+v", cb, ch)
	}
}

func TestRunDeterminism(t *testing.T) {
	w, _ := workloads.ByName("tpc-d.q6")
	o := DefaultOptions()
	a := Run(w.Build, Selective, o)
	b := Run(w.Build, Selective, o)
	// WallNanos is host timing, the one field documented as
	// nondeterministic; everything else must match exactly.
	a.Sim.WallNanos, b.Sim.WallNanos = 0, 0
	if a.Sim != b.Sim {
		t.Fatalf("selective runs differ:\n%+v\n%+v", a.Sim, b.Sim)
	}
}

func TestImprovement(t *testing.T) {
	base := Result{Sim: sim.RunStats{Cycles: 1000}}
	faster := Result{Sim: sim.RunStats{Cycles: 800}}
	slower := Result{Sim: sim.RunStats{Cycles: 1100}}
	if got := Improvement(base, faster); got != 20 {
		t.Fatalf("improvement = %v", got)
	}
	if got := Improvement(base, slower); got != -10 {
		t.Fatalf("improvement = %v", got)
	}
	if got := Improvement(Result{}, faster); got != 0 {
		t.Fatalf("zero base improvement = %v", got)
	}
}

func TestRunAllOrdering(t *testing.T) {
	w, _ := workloads.ByName("vpenta")
	o := DefaultOptions()
	results := RunAll(w.Build, o)
	if len(results) != 5 {
		t.Fatalf("%d results", len(results))
	}
	for i, v := range Versions() {
		if results[i].Version != v {
			t.Fatalf("result %d is %v", i, results[i].Version)
		}
	}
	// vpenta is regular: software versions must beat base decisively.
	base := results[0]
	if Improvement(base, results[2]) < 20 {
		t.Fatalf("pure software only improved %.2f%%", Improvement(base, results[2]))
	}
	// Selective within a whisker of the best of all versions.
	sel := Improvement(base, results[4])
	for _, r := range results[1:4] {
		if d := Improvement(base, r) - sel; d > 0.3 {
			t.Fatalf("%v beats selective by %.2f points", r.Version, d)
		}
	}
}

// TestRunAllMatchesRun pins that sharing one machine across the five
// versions changes nothing: RunAll's results equal five independent Run
// calls under both mechanisms, both replacement policies, way memo and
// classification on, over synthetic kernels from every footprint class.
func TestRunAllMatchesRun(t *testing.T) {
	var kernels []synth.Kernel
	for i, f := range synth.Families() {
		if i%13 == 0 {
			kernels = append(kernels, synth.MustMake(f, 3))
		}
	}
	for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
		for _, pol := range []sim.PolicyKind{sim.PolicyLRU, sim.PolicyEHC} {
			o := DefaultOptions()
			o.Mechanism, o.Policy = mech, pol
			o.WayMemo, o.Energy, o.Classify = pol == sim.PolicyEHC, true, pol == sim.PolicyLRU
			for _, k := range kernels {
				all := RunAll(k.Build, o)
				for i, v := range Versions() {
					one := Run(k.Build, v, o)
					got, want := all[i].Sim, one.Sim
					got.WallNanos, want.WallNanos = 0, 0
					if got != want || all[i].Regions != one.Regions || all[i].Opt != one.Opt {
						t.Fatalf("%s %v %v/%v: RunAll differs from Run\nRunAll: %+v\nRun:    %+v", k.Name(), v, mech, pol, got, want)
					}
				}
			}
		}
	}
}

func TestMechanismOptionsPropagate(t *testing.T) {
	w, _ := workloads.ByName("perl")
	o := DefaultOptions()
	o.Mechanism = sim.HWVictim
	res := Run(w.Build, PureHardware, o)
	if res.Sim.Victim1.Probes == 0 {
		t.Fatal("victim mechanism not engaged")
	}
	o.Mechanism = sim.HWBypass
	res = Run(w.Build, PureHardware, o)
	if res.Sim.MAT.Touches == 0 {
		t.Fatal("bypass mechanism not engaged")
	}
}

func TestCountStats(t *testing.T) {
	w, _ := workloads.ByName("adi")
	prog, _, _ := Prepare(w.Build, Base, DefaultOptions())
	c := CountStats(prog)
	if c.Accesses() == 0 || c.Instructions == 0 {
		t.Fatal("CountStats empty")
	}
}
