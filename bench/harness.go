package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// workers is the worker count of every closed-loop workload and of the
// served simulation pool: one per CPU of the reference host.
const workers = 2

// setupRepeats is how often a run repeats its set-up; setup_s is the median.
const setupRepeats = 3

// warmup is how long a closed loop runs before it is measured, so that
// first-touch page faults and the set-up's garbage are not timed.
const warmup = time.Second

// opRec is one completed operation of a closed loop.
type opRec struct {
	start, end time.Duration // since the loop started
	err        error
}

// loopResult is what a closed loop did.
type loopResult struct {
	ops      []opRec
	wall     time.Duration // start to the last operation's end
	lastIdle time.Duration // when the first worker ran out of work
}

// closedLoop runs op on workers closed-loop workers: each claims the next
// operation index as soon as its previous operation returns. It runs n
// operations, or, when d > 0, whole passes of pass operations until d has
// elapsed: the pass running at the deadline completes, and operations past
// its end are neither started nor counted. Only op is timed; verify checks
// its output afterwards.
func closedLoop(n, pass int, d time.Duration, op func(worker, i int) any, verify func(i int, out any) error) loopResult {
	type rec struct {
		i int
		opRec
	}
	recs := make([][]rec, workers)
	var next, limit atomic.Int64
	limit.Store(int64(n))
	start := time.Now()
	var wg sync.WaitGroup
	for wk := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= limit.Load() {
					return
				}
				t0 := time.Since(start)
				if d > 0 && t0 >= d {
					end := (i/int64(pass) + 1) * int64(pass)
					for cur := limit.Load(); end < cur && !limit.CompareAndSwap(cur, end); cur = limit.Load() {
					}
					if i >= limit.Load() {
						return
					}
				}
				out := op(wk, int(i))
				r := rec{int(i), opRec{start: t0, end: time.Since(start)}}
				r.err = verify(int(i), out)
				recs[wk] = append(recs[wk], r)
			}
		}()
	}
	wg.Wait()
	var res loopResult
	res.lastIdle = -1
	for _, rs := range recs {
		var last time.Duration
		for _, r := range rs {
			if int64(r.i) >= limit.Load() {
				continue
			}
			res.ops = append(res.ops, r.opRec)
			last = max(last, r.end)
		}
		res.wall = max(res.wall, last)
		if res.lastIdle < 0 || last < res.lastIdle {
			res.lastIdle = last
		}
	}
	return res
}

// latencies returns the operations' durations in milliseconds.
func (l loopResult) latencies() []float64 {
	out := make([]float64, len(l.ops))
	for i, r := range l.ops {
		out[i] = millis(r.end - r.start)
	}
	return out
}

// utilization is the summed operation time over workers × wall time.
func (l loopResult) utilization() float64 {
	var busy time.Duration
	for _, r := range l.ops {
		busy += r.end - r.start
	}
	if l.wall <= 0 {
		return 0
	}
	return float64(busy) / float64(workers*l.wall)
}

// tailFrac is the share of the wall time after the first worker went idle.
func (l loopResult) tailFrac() float64 {
	if l.wall <= 0 {
		return 0
	}
	return float64(l.wall-l.lastIdle) / float64(l.wall)
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string
	notes             []string // ungated diagnostics, printed with the report
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail counts one failed operation and keeps its reason for the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// batch is a closed-loop workload: a set-up step, then operations drawn
// from a fixed, seed-ordered list.
type batch interface {
	// setup builds the workload's state; rec, when non-nil, records spans.
	setup(rec *spanRec) error
	// pass is the number of operations in the list.
	pass() int
	// tailPct is the latency percentile reported as tail_ms. It leaves at
	// least twenty samples beyond it in a ten-second run: a higher one
	// rests on a few operations and moves with them.
	tailPct() float64
	// op runs operation i (0 <= i < pass()) through the layers' public
	// entry points and returns its output.
	op(worker, i int) any
	// tracedOps is how many operations the traced run times.
	tracedOps() int
	// tracedOp runs operation i with a span around each layer call under
	// root; its output must equal op's.
	tracedOp(rec *spanRec, root tok, worker, i int) any
	// verify checks operation i's output (an error output fails).
	verify(i int, out any) error
	// check runs the whole-run output checks, counting into o.
	check(o *outcome)
	// layerMetrics adds the workload's own per-layer metrics.
	layerMetrics(m map[string]float64)
}

// runBatch runs a closed-loop workload for d untraced, or its first
// tracedOps operations traced.
func runBatch(b batch, d time.Duration, traced bool, spansPath string) (*outcome, error) {
	o := newOutcome()
	if !traced {
		times := make([]float64, setupRepeats)
		for k := range times {
			t0 := time.Now()
			if err := b.setup(nil); err != nil {
				return nil, err
			}
			times[k] = time.Since(t0).Seconds()
		}
		// Upper bound on operations: far more than any host finishes in d.
		n := b.pass() * 4 * (int(d/time.Second) + 1)
		op := func(wk, i int) any { return b.op(wk, i%b.pass()) }
		verify := func(i int, out any) error { return b.verify(i%b.pass(), out) }
		o.count(closedLoop(n, 1, warmup, op, verify))
		res := closedLoop(n, b.pass(), d, op, verify)
		o.count(res)
		b.check(o)
		lat := res.latencies()
		o.metrics["p50_ms"] = percentile(lat, 50)
		o.metrics["tail_ms"] = percentile(lat, b.tailPct())
		o.metrics["throughput"] = float64(len(res.ops)) / res.wall.Seconds()
		o.metrics["setup_s"] = median(times)
		o.metrics["retained_mb"] = retainedMB()
		runtime.KeepAlive(b)
		return o, nil
	}

	// Each traced operation also runs untraced on the same worker, in
	// alternating order, so the tracing overhead is measured on the same
	// work under the same conditions.
	rec := newSpanRec()
	rt := readRuntime()
	if err := b.setup(rec); err != nil {
		return nil, err
	}
	var plainT, tracedT [workers]time.Duration
	res := closedLoop(min(b.tracedOps(), b.pass()), 1, 0, func(wk, i int) any {
		var outs [2]any
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if (i+k)%2 == 0 {
				outs[0] = b.op(wk, i)
				plainT[wk] += time.Since(t0)
				continue
			}
			root := rec.root(wk, int64(i)+1, "bench.op")
			outs[1] = b.tracedOp(rec, root, wk, i)
			rec.end(root, nil)
			tracedT[wk] += time.Since(t0)
		}
		return outs
	}, func(i int, out any) error {
		outs := out.([2]any)
		return errors.Join(b.verify(i, outs[0]), b.verify(i, outs[1]))
	})
	o.count(res)
	b.check(o)
	spans := rec.snapshot()
	a := attribute(spans, "bench.op")
	if err := a.reconcile(0.10); err != nil {
		o.fail("%v", err)
	}
	m := o.metrics
	layerFracs(a, m)
	engineMetrics(spans, m)
	m["parallel.utilization"] = res.utilization()
	m["parallel.tail_frac"] = res.tailFrac()
	m["trace.overhead_frac"] = float64(tracedT[0]+tracedT[1])/float64(plainT[0]+plainT[1]) - 1
	b.layerMetrics(m)
	rt.since(m)
	return o, writeChrome(spansPath, spans)
}

// count folds a loop's operations into the attempted and failed totals.
func (o *outcome) count(l loopResult) {
	o.attempted += int64(len(l.ops))
	for _, r := range l.ops {
		if r.err != nil {
			o.fail("%v", r.err)
		}
	}
}

// layers are the span layers whose self-time shares are reported; "bench"
// is time inside an operation that no layer span covers.
var layers = []string{"bench", "experiments", "trace", "sim", "loopir", "workloads",
	"regions", "opt", "locality", "server", "loadgen"}

func layerFracs(a attribution, m map[string]float64) {
	for _, l := range layers {
		m[l+".self_frac"] = a.frac(l)
	}
}

// engineMetrics derives the simulator-engine metrics every workload has
// from its sim spans. Replays split each block between trace decoding
// (producing events) and EmitBlock (consuming them); live runs split the
// loopir.Run call between the interpreter (its interpreter-only time) and
// the simulator (the rest).
func engineMetrics(spans []span, m map[string]float64) {
	var produce, consume, events, runs int64
	var newMachine, finish time.Duration
	var nNew, nFin int
	for _, s := range spans {
		switch s.Name {
		case "sim.replay", "sim.run":
			p := attrInt(s, "decode_ns") + attrInt(s, "interp_ns")
			produce += p
			consume += int64(s.dur()) - p
			events += attrInt(s, "events")
			runs++
		case "sim.new_machine":
			newMachine += s.dur()
			nNew++
		case "sim.finish":
			finish += s.dur()
			nFin++
		}
	}
	if events > 0 {
		m["events.produce.ns_per_event"] = float64(produce) / float64(events)
		m["sim.consume.ns_per_event"] = float64(consume) / float64(events)
	}
	if runs > 0 {
		m["sim.events_per_run"] = float64(events) / float64(runs)
	}
	m["sim.runs"] = float64(runs)
	if nNew > 0 {
		m["sim.new_machine.us"] = float64(newMachine) / float64(nNew) / 1e3
	}
	if nFin > 0 {
		m["sim.finish.us"] = float64(finish) / float64(nFin) / 1e3
	}
}

// runtimeSample is a snapshot of the Go runtime counters the traced run
// reports.
type runtimeSample struct{ gcCPU, totalCPU, cycles, allocBytes float64 }

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), cycles: v(2), allocBytes: v(3)}
}

// since reports the runtime's GC share, GC cycles and allocation volume
// from start to now.
func (start runtimeSample) since(m map[string]float64) {
	now := readRuntime()
	if cpu := now.totalCPU - start.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (now.gcCPU - start.gcCPU) / cpu
	}
	m["runtime.gc_cycles"] = now.cycles - start.cycles
	m["runtime.alloc_mb"] = (now.allocBytes - start.allocBytes) / 1e6
}

// retainedMB is the live heap after a full collection at the end of a
// run: the memory the workload keeps (streams, caches, corpus) without the
// garbage whose collection timing makes the process's peak size vary by up
// to half from run to run.
func retainedMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}
