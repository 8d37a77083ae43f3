package experiments

import (
	"reflect"
	"testing"

	"selcache/internal/core"
	"selcache/internal/parallel"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// normalize zeroes the host-timing field of every run so sweeps can be
// compared exactly; WallNanos is the one documented-nondeterministic field
// of sim.RunStats.
func normalize(sw *Sweep) {
	for i := range sw.Rows {
		for v := range sw.Rows[i].Stats {
			sw.Rows[i].Stats[v].WallNanos = 0
		}
	}
}

// TestParallelSweepMatchesSerial is the engine's determinism guarantee:
// the pooled sweep must be byte-identical to the serial reference — rows,
// per-version statistics, and float aggregates — for both hardware
// mechanisms and at worker counts that exercise real concurrency even on a
// single-CPU host. The test runs under -race in the tier-1 suite, so it
// doubles as the shared-state hazard check for core.Run and the workload
// builders.
func TestParallelSweepMatchesSerial(t *testing.T) {
	ws := subset()
	for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
		o := core.DefaultOptions()
		o.Mechanism = mech
		serial := RunSweep(o, ws, Plan{Workers: parallel.Serial})
		normalize(&serial)
		for _, workers := range []int{2, 4} {
			par := RunSweep(o, ws, Plan{Workers: workers})
			normalize(&par)
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("mechanism %v: %d-worker sweep differs from serial:\nserial: %+v\nparallel: %+v",
					mech, workers, serial, par)
			}
		}
	}
}

// TestTable3ParallelMatchesSerial checks the flattened 2-mechanism ×
// config × benchmark fan-out against the serial path on the fast subset.
func TestTable3ParallelMatchesSerial(t *testing.T) {
	// Two workloads keep the 12-sweep flattening honest (cell index maps
	// to (sweep, workload)) while staying affordable on one CPU.
	ws := subset()[:2]
	serialRows, serialSweeps := table3(Plan{Workers: parallel.Serial}, ws)
	parRows, parSweeps := table3(Plan{Workers: 4}, ws)
	for i := range serialSweeps {
		normalize(&serialSweeps[i])
	}
	for i := range parSweeps {
		normalize(&parSweeps[i])
	}
	if !reflect.DeepEqual(serialRows, parRows) {
		t.Errorf("table 3 rows differ:\nserial: %+v\nparallel: %+v", serialRows, parRows)
	}
	if !reflect.DeepEqual(serialSweeps, parSweeps) {
		t.Error("table 3 sweeps differ between serial and parallel assembly")
	}
}

func TestTable3Shapes(t *testing.T) {
	ws := subset()[:1]
	rows, sweeps := table3(Plan{}, ws)
	cfgs := sim.ExperimentConfigs()
	if len(rows) != len(cfgs) {
		t.Fatalf("%d rows, want %d", len(rows), len(cfgs))
	}
	if len(sweeps) != 2*len(cfgs) {
		t.Fatalf("%d sweeps, want %d", len(sweeps), 2*len(cfgs))
	}
	for i, r := range rows {
		if r.Config != cfgs[i].Name {
			t.Errorf("row %d config %q, want %q", i, r.Config, cfgs[i].Name)
		}
		bp, vc := sweeps[2*i], sweeps[2*i+1]
		if bp.Mechanism != sim.HWBypass || vc.Mechanism != sim.HWVictim {
			t.Errorf("row %d sweep mechanisms %v/%v", i, bp.Mechanism, vc.Mechanism)
		}
		if bp.Avg[core.Selective] != r.SelectiveBypass {
			t.Errorf("row %d selective/bypass %.4f != sweep avg %.4f", i, r.SelectiveBypass, bp.Avg[core.Selective])
		}
		if vc.Avg[core.Selective] != r.SelectiveVictim {
			t.Errorf("row %d selective/victim %.4f != sweep avg %.4f", i, r.SelectiveVictim, vc.Avg[core.Selective])
		}
		if Events([]Sweep{bp}) == 0 {
			t.Errorf("row %d: zero simulated events", i)
		}
	}
}

func TestSweepWallClockFilled(t *testing.T) {
	sw := RunSweep(core.DefaultOptions(), subset()[:1], Plan{Workers: parallel.Serial})
	for _, row := range sw.Rows {
		for v, st := range row.Stats {
			if st.WallNanos <= 0 {
				t.Errorf("%s version %v: WallNanos %d not filled", row.Benchmark, core.Version(v), st.WallNanos)
			}
			if st.EventsPerSecond() <= 0 {
				t.Errorf("%s version %v: EventsPerSecond %.1f", row.Benchmark, core.Version(v), st.EventsPerSecond())
			}
		}
	}
}

// TestTable3MatchesRunRow: every row of the sweep matrix, shared
// mechanism-blind runs included, equals RunRow for its (configuration,
// mechanism). On a fresh trace cache the matrix makes exactly 8 Gets (one
// per simulation) per (configuration, workload) cell, and Events counts
// each simulated run once.
func TestTable3MatchesRunRow(t *testing.T) {
	ws := workloads.TinyGolden()
	tc := NewTraceCache("")
	_, sweeps := table3(Plan{Cache: tc}, ws)
	if st, want := tc.Stats(), 8*len(sim.ExperimentConfigs())*len(ws); st.Hits+st.Misses != uint64(want) {
		t.Errorf("table3 made %d trace-cache Gets, want %d", st.Hits+st.Misses, want)
	}
	var events uint64
	for _, sw := range sweeps {
		o := core.DefaultOptions()
		o.Machine, o.Mechanism = sw.Config, sw.Mechanism
		for i, row := range sw.Rows {
			for v, st := range row.Stats {
				if sw.Mechanism == sim.HWBypass || !core.Version(v).MechanismBlind() {
					events += st.Instructions
				}
			}
			want := RunRow(ws[i], o, tc)
			for v := range row.Stats {
				row.Stats[v].WallNanos, want.Stats[v].WallNanos = 0, 0
			}
			if row != want {
				t.Errorf("%s/%v/%s: matrix row differs from RunRow\nmatrix: %+v\nRunRow: %+v",
					sw.Config.Name, sw.Mechanism, row.Benchmark, row, want)
			}
		}
	}
	if got := Events(sweeps); got != events {
		t.Errorf("Events = %d, want %d (each simulated run once)", got, events)
	}
}
