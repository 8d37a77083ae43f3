// Benchmark harness regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable2            benchmark characteristics (Table 2)
//	BenchmarkFigures           per-benchmark improvements, six machines (Figures 4–9)
//	BenchmarkTable3            average improvements, both mechanisms
//	BenchmarkPhaseAblation     frozen- vs learning-while-off MAT tables
//	BenchmarkThresholdSweep    region-detection threshold sensitivity
//	BenchmarkVictimScenario    Section 5.2's two-loop victim-cache story
//	BenchmarkAblation*         design-decision ablations (DESIGN.md §6)
//
// Each experiment benchmark prints its table once, so the benchmark log
// doubles as the reproduction report. Absolute wall-clock numbers measure
// the simulator, not the simulated machine.
package selcache_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"selcache"
	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/loopir"
	"selcache/internal/mem"
	"selcache/internal/parallel"
	"selcache/internal/report"
	"selcache/internal/sim"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

var printOnce sync.Map

func once(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(experiments.Plan{})
		once("table2", func() { report.WriteTable2(os.Stdout, rows) })
	}
}

func BenchmarkFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweeps := experiments.FigureSweeps(experiments.Plan{})
		once("figures", func() {
			for _, f := range experiments.Figures() {
				report.WriteFigure(os.Stdout, f.Name(), sweeps[f])
				if f == experiments.Figure4 {
					report.WriteClassAverages(os.Stdout, sweeps[f])
				}
			}
		})
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table3(experiments.Plan{})
		once("table3", func() { report.WriteTable3(os.Stdout, rows) })
	}
}

// ablationSubset keeps the ablation benchmarks affordable: one benchmark
// per class.
func ablationSubset() []workloads.Workload {
	var out []workloads.Workload
	for _, n := range []string{"vpenta", "compress", "tpc-d.q3"} {
		w, _ := workloads.ByName(n)
		out = append(out, w)
	}
	return out
}

func printAblation(name string, rows []experiments.AblationRow) {
	fmt.Printf("Ablation %s (selective improvement %%, default vs ablated):\n", name)
	for _, r := range rows {
		fmt.Printf("  %-10s %7.2f -> %7.2f\n", r.Benchmark, r.Default, r.Ablated)
	}
}

func BenchmarkPhaseAblation(b *testing.B) {
	// Decision 2: frozen MAT/SLDT tables while deactivated (the paper's
	// "we simply ignore the mechanism") versus learning while off.
	for i := 0; i < b.N; i++ {
		rows := experiments.FrozenTables(ablationSubset())
		once("frozen", func() { printAblation("frozen-tables", rows) })
	}
}

func BenchmarkAblationMarkerElimination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.MarkerElimination(ablationSubset())
		once("markers", func() { printAblation("marker-elimination", rows) })
	}
}

func BenchmarkAblationPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Propagation(ablationSubset())
		once("propagation", func() { printAblation("innermost-out propagation", rows) })
	}
}

func BenchmarkAblationBypassPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.BypassPolicy(ablationSubset())
		once("bypass-policy", func() { printAblation("cold-ceiling bypass policy", rows) })
	}
}

func BenchmarkAblationBlockingMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.BlockingMemory(ablationSubset())
		once("blocking", func() { printAblation("blocking memory model", rows) })
	}
}

func BenchmarkThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ThresholdSweep([]float64{0.1, 0.5, 0.9}, ablationSubset())
		once("threshold", func() {
			fmt.Println("Region-detection threshold sweep (avg selective improvement %):")
			for _, r := range rows {
				fmt.Printf("  threshold %.1f: %6.2f%%  (markers executed: %d)\n",
					r.Threshold, r.AvgImprovement, r.Markers)
			}
		})
	}
}

func BenchmarkVictimScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.VictimScenario()
		once("victimscenario", func() {
			fmt.Printf("Victim scenario (Section 5.2): combined %d cycles / %d victim hits, selective %d cycles / %d victim hits\n",
				r.CombinedCycles, r.CombinedVictimHits, r.SelectiveCycles, r.SelectiveVictimHits)
		})
	}
}

// Micro-benchmarks of the simulator itself.

// BenchmarkParallelSweep measures the worker-pool fan-out of one full
// 13-benchmark sweep against the serial path. On a multi-core host the
// pooled sub-benchmark should approach a GOMAXPROCS-fold speedup (cells
// are independent and embarrassingly parallel); on a single-CPU host the
// two are expected to tie, which bounds the pool's overhead.
func BenchmarkParallelSweep(b *testing.B) {
	o := core.DefaultOptions()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = experiments.RunSweep(o, nil, experiments.Plan{Workers: parallel.Serial})
		}
	})
	b.Run("pooled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = experiments.RunSweep(o, nil, experiments.Plan{})
		}
	})
}

// BenchmarkAccessHotPath drives the per-access pipeline with a strided
// walk over a working set that fits L2 but thrashes L1 — the locality
// profile the MRU fast path and the single-pass stall loop target.
func BenchmarkAccessHotPath(b *testing.B) {
	m := sim.NewMachine(sim.Base(), sim.Options{Mechanism: sim.HWBypass, InitiallyOn: true})
	const stride = 8
	span := mem.Addr(256 << 10)
	var a mem.Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a += stride
		if a >= span {
			a = 0
		}
		m.Access(a, 8, i&7 == 0)
	}
}

// BenchmarkSimulatorEventThroughput measures the per-access cost of the
// batched engine on a uniformly random address stream — the locality-free
// worst case, where every event misses most of the simulated set arrays.
// Word packing is timed along with EmitBlock. The ...Scalar variant feeds
// the identical stream through per-event Access calls for comparison.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	m := sim.NewMachine(sim.Base(), sim.Options{Mechanism: sim.HWBypass, InitiallyOn: true})
	blk := trace.NewBlock(trace.DefaultBlockEvents)
	words := blk.Buf()
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := blk.Cap()
		if rem := b.N - done; n > rem {
			n = rem
		}
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			words[i] = mem.AccessWord(mem.Addr(x>>40), mem.AccessTag(8, (done+i)&7 == 0))
		}
		blk.SetLen(n)
		m.EmitBlock(blk)
		done += n
	}
}

func BenchmarkSimulatorEventThroughputScalar(b *testing.B) {
	m := sim.NewMachine(sim.Base(), sim.Options{Mechanism: sim.HWBypass, InitiallyOn: true})
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m.Access(mem.Addr(x>>40), 8, i&7 == 0)
	}
}

// BenchmarkTraceRecord measures capture: a fixed-seed synthetic stream of
// about 1M emitter calls recorded into a trace. The stream is loop-shaped
// like the interpreter's: each seeded loop opens with a marker, then every
// iteration loads two arrays, makes two identical Compute calls (one
// folded run) and stores to a third. ns/event is per recorded call.
func BenchmarkTraceRecord(b *testing.B) {
	const events = 1 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := trace.NewRecorder()
		x := uint64(1)
		for e := 0; e < events; {
			x = x*6364136223846793005 + 1442695040888963407
			base, n, iters := mem.Addr(x>>40)<<3, int(x>>8&7)+1, int(x>>16&255)+16
			r.Marker(x&1 == 0)
			for it := 0; it < iters; it++ {
				a := base + mem.Addr(it*8)
				r.Access(a, 8, false)
				r.Access(a+1<<24, 8, false)
				r.Compute(n)
				r.Compute(n)
				r.Access(a+2<<24, 8, true)
			}
			e += 1 + 5*iters
		}
		recordedTrace = r.Trace()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(recordedTrace.Meta.Events), "ns/event")
}

var recordedTrace *trace.Trace

func BenchmarkInterpreterThroughput(b *testing.B) {
	w, _ := selcache.BenchmarkByName("swim")
	prog := w.Build()
	var c countEmitter
	loopir.Run(prog, &c) // count events once
	events := int(c.n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countEmitter
		loopir.Run(prog, &sink)
	}
	b.ReportMetric(float64(events), "events/op")
}

type countEmitter struct{ n uint64 }

func (c *countEmitter) Access(_ mem.Addr, _ uint8, _ bool) { c.n++ }
func (c *countEmitter) Compute(n int)                      { c.n += uint64(n) }
func (c *countEmitter) Marker(bool)                        { c.n++ }

func BenchmarkSelectivePipeline(b *testing.B) {
	// Full pipeline cost for one mixed benchmark: detection, compilation
	// and simulation.
	w, _ := selcache.BenchmarkByName("tpc-d.q6")
	o := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Run(w.Build, core.Selective, o)
	}
}

func BenchmarkAblationCompilerPasses(b *testing.B) {
	// Per-pass contribution of the Section 3.2 compiler optimizations on
	// the regular benchmarks.
	for i := 0; i < b.N; i++ {
		rows := experiments.CompilerPasses(nil)
		once("compiler-passes", func() {
			fmt.Println("Compiler-pass ablation (pure-software improvement %):")
			fmt.Printf("  %-10s %8s %8s %9s %9s %10s\n",
				"benchmark", "full", "no-ic", "no-layout", "no-tile", "no-unroll")
			for _, r := range rows {
				fmt.Printf("  %-10s %8.2f %8.2f %9.2f %9.2f %10.2f\n",
					r.Benchmark, r.Full, r.NoIC, r.NoLayout, r.NoTiling, r.NoUnrollSR)
			}
		})
	}
}

func BenchmarkMATDesignSweep(b *testing.B) {
	// Hardware design space around the paper's MAT/buffer configuration,
	// averaged over the irregular benchmarks.
	for i := 0; i < b.N; i++ {
		rows := experiments.MATDesignSweep(nil)
		once("mat-design", func() {
			fmt.Println("Bypass-mechanism design sweep (avg improvement %, irregular codes):")
			for _, r := range rows {
				fmt.Printf("  %-28s purehw=%6.2f selective=%6.2f\n", r.Label, r.PureHW, r.Selective)
			}
		})
	}
}
