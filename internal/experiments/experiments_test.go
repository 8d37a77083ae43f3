package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"selcache/internal/core"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// subset keeps the sweep-based tests fast: one benchmark per class.
func subset() []workloads.Workload {
	var out []workloads.Workload
	for _, name := range []string{"vpenta", "compress", "tpc-d.q3"} {
		w, ok := workloads.ByName(name)
		if !ok {
			panic("missing benchmark " + name)
		}
		out = append(out, w)
	}
	return out
}

func TestRunSweepShapes(t *testing.T) {
	sw := RunSweep(core.DefaultOptions(), subset(), Plan{})
	if len(sw.Rows) != 3 {
		t.Fatalf("%d rows", len(sw.Rows))
	}
	for _, row := range sw.Rows {
		if row.Improv[core.Base] != 0 {
			t.Fatalf("%s: base improvement %.2f != 0", row.Benchmark, row.Improv[core.Base])
		}
		if row.Cycles[core.Base] == 0 {
			t.Fatalf("%s: zero base cycles", row.Benchmark)
		}
		// Selective within a whisker of the best version (the paper's
		// headline claim).
		sel := row.Improv[core.Selective]
		for _, v := range []core.Version{core.PureHardware, core.PureSoftware, core.Combined} {
			if d := row.Improv[v] - sel; d > 0.3 {
				t.Errorf("%s: %v beats selective by %.2f points", row.Benchmark, v, d)
			}
		}
	}
	for c := range sw.ClassCount {
		if sw.ClassCount[c] != 1 {
			t.Fatalf("class %v count %d, want 1 (subset has one per class)", workloads.Class(c), sw.ClassCount[c])
		}
	}
}

func TestFigureIDs(t *testing.T) {
	if len(Figures()) != 6 {
		t.Fatal("figure count")
	}
	cfgs := sim.ExperimentConfigs()
	seen := map[string]bool{}
	for i, f := range Figures() {
		name := f.Name()
		if name == "unknown figure" {
			t.Fatalf("figure %d unnamed", f)
		}
		want := fmt.Sprintf("Figure %d:", 4+i)
		if !strings.HasPrefix(name, want) {
			t.Errorf("figure %d name %q does not start with %q", f, name, want)
		}
		if seen[name] {
			t.Errorf("duplicate figure name %q", name)
		}
		seen[name] = true
	}
	if FigureID(99).Name() != "unknown figure" {
		t.Error("out-of-range FigureID must name itself unknown")
	}
	// FigureSweeps indexes by FigureID over ExperimentConfigs: the
	// specific machine deltas the captions promise.
	if cfgs[Figure4].Name != sim.Base().Name {
		t.Error("Figure4 is not the base machine")
	}
	if cfgs[Figure5].MemLat != 200 {
		t.Fatal("Figure5 config wrong")
	}
	if cfgs[Figure6].L2.Size != 1<<20 {
		t.Fatal("Figure6 config wrong")
	}
	if cfgs[Figure7].L1.Size != 64<<10 {
		t.Fatal("Figure7 config wrong")
	}
	if cfgs[Figure8].L2.Assoc != 8 {
		t.Fatal("Figure8 config wrong")
	}
	if cfgs[Figure9].L1.Assoc != 8 {
		t.Fatal("Figure9 config wrong")
	}
}

func TestVictimSweepNeverLosesToBase(t *testing.T) {
	o := core.DefaultOptions()
	o.Mechanism = sim.HWVictim
	sw := RunSweep(o, subset(), Plan{})
	for _, row := range sw.Rows {
		if row.Improv[core.PureHardware] < -0.3 {
			t.Errorf("%s: victim cache lost %.2f%% to base", row.Benchmark, -row.Improv[core.PureHardware])
		}
	}
}

func TestVictimScenario(t *testing.T) {
	r := VictimScenario()
	if r.SelectiveVictimHits <= r.CombinedVictimHits {
		t.Fatalf("gating did not preserve victims: selective %d hits vs combined %d",
			r.SelectiveVictimHits, r.CombinedVictimHits)
	}
	if r.SelectiveCycles >= r.CombinedCycles {
		t.Fatalf("selective %d cycles, combined %d", r.SelectiveCycles, r.CombinedCycles)
	}
}

func TestThresholdInsensitive(t *testing.T) {
	rows := ThresholdSweep([]float64{0.3, 0.5, 0.7}, subset())
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	// Section 4.1: the threshold is not critical — improvements must
	// stay within a point of each other across the sweep.
	for _, r := range rows[1:] {
		if d := r.AvgImprovement - rows[0].AvgImprovement; d > 1 || d < -1 {
			t.Errorf("threshold %.1f shifts improvement by %.2f points", r.Threshold, d)
		}
	}
}

func TestMarkerEliminationAblation(t *testing.T) {
	rows := MarkerElimination(subset())
	for _, r := range rows {
		// Eliminating redundant markers can only help (it removes
		// instructions); allow for sub-0.1-point noise.
		if r.Ablated > r.Default+0.1 {
			t.Errorf("%s: naive markers beat eliminated ones by %.2f", r.Benchmark, r.Ablated-r.Default)
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full 13-benchmark classification pass")
	}
	rows := Table2(Plan{})
	if len(rows) != 13 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Instructions == 0 || r.L1MissPct <= 0 {
			t.Errorf("%s: empty characteristics %+v", r.Benchmark, r)
		}
	}
}

// allocatedBytes reports the heap bytes fn allocates, the least over three
// calls (a background allocation can only add).
func allocatedBytes(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRunRowBuildsOneMachine: on a warm trace cache, RunRow's five versions
// share one machine, so the row allocates less than two machines' worth.
// A machine per version would allocate about five.
func TestRunRowBuildsOneMachine(t *testing.T) {
	for _, name := range []string{"tiny-compress", "tiny-tpcc"} {
		var w workloads.Workload
		for _, tw := range workloads.TinyGolden() {
			if tw.Name == name {
				w = tw
			}
		}
		for _, cfg := range []sim.Config{sim.Base(), sim.ExperimentConfigs()[1]} {
			o := core.DefaultOptions()
			o.Machine = cfg
			tc := NewTraceCache("")
			RunRow(w, o, tc) // records the three streams
			machine := allocatedBytes(func() { sim.NewMachine(cfg, core.SimOptions(core.Selective, o)) })
			row := allocatedBytes(func() { RunRow(w, o, tc) })
			if row >= 2*machine {
				t.Errorf("%s on %s: RunRow allocated %d bytes, one machine %d", name, cfg.Name, row, machine)
			}
		}
	}
}
