package core

import (
	"time"

	"selcache/internal/loopir"
	"selcache/internal/sim"
	"selcache/internal/trace"
)

// Runner owns one simulated machine and the block its replays hand that
// machine. Run and Replay Reset the machine for the version they simulate,
// so a caller that runs simulations one after another (a sweep worker, a
// kernel's five versions) builds the cache, TLB and MAT tables once and
// keeps them wherever the next run's geometry matches. Results are
// identical to a fresh machine's (TestRunnerMatchesFreshMachine).
//
// The zero Runner is ready to use. A Runner is not safe for concurrent
// use and must not be copied after first use: hold one per worker
// (parallel.MapWith).
type Runner struct {
	machine sim.Machine
	block   *trace.Block
}

// Run executes one version of the workload end to end on the runner's
// machine and returns its statistics.
func (r *Runner) Run(build Builder, v Version, o Options) Result {
	o = o.normalized()
	prog, rst, ost := Prepare(build, v, o)
	res := r.simulate(v, o, func(m *sim.Machine) { loopir.Run(prog, m) })
	res.Regions, res.Opt, res.Program = rst, ost, prog
	return res
}

// RunAll runs every version (Base first) on the runner's machine and
// returns the results in Versions() order.
func (r *Runner) RunAll(build Builder, o Options) []Result {
	out := make([]Result, 0, NumVersions)
	for _, v := range Versions() {
		out = append(out, r.Run(build, v, o))
	}
	return out
}

// Replay runs a recorded trace through the runner's machine, configured for
// version v under o, on the batched block engine. It returns the same
// Result a live Run of that version would, except for the nondeterministic
// WallNanos and the fields only a live run has (Program, Regions, Opt).
//
// The trace must carry v's stream class (see Version.Stream) and have been
// recorded under options whose Normalized form matches o's; otherwise the
// statistics describe a stream the version would never emit.
func (r *Runner) Replay(t *trace.Trace, v Version, o Options) Result {
	if r.block == nil {
		r.block = trace.NewBlock(trace.DefaultBlockEvents)
	}
	return r.simulate(v, o.normalized(), func(m *sim.Machine) { t.ReplayBatched(m, r.block) })
}

// simulate resets the machine for version v under the normalized options o,
// lets feed drive it, and times only the feeding.
func (r *Runner) simulate(v Version, o Options, feed func(*sim.Machine)) Result {
	r.machine.Reset(o.Machine, simOptions(v, o))
	start := time.Now()
	feed(&r.machine)
	st := r.machine.Finish()
	st.WallNanos = time.Since(start).Nanoseconds()
	return Result{Version: v, Sim: st}
}

// Run executes one version of the workload end to end on a fresh machine.
func Run(build Builder, v Version, o Options) Result { return new(Runner).Run(build, v, o) }

// RunAll executes every version (Base first) on one fresh machine, reset
// between versions; results equal five Run calls.
func RunAll(build Builder, o Options) []Result { return new(Runner).RunAll(build, o) }

// ReplayTrace is Runner.Replay on a fresh machine.
func ReplayTrace(t *trace.Trace, v Version, o Options) Result {
	return new(Runner).Replay(t, v, o)
}

// ReplayTraceBuffered is ReplayTrace with a caller-owned block (nil: one is
// allocated). It remains only for the benchmark harness in bench/, which
// compiles against it; code that replays more than one stream holds a
// Runner instead.
func ReplayTraceBuffered(t *trace.Trace, v Version, o Options, blk *trace.Block) Result {
	return (&Runner{block: blk}).Replay(t, v, o)
}

// ReplayTraceScalar is ReplayTrace forced through the event-at-a-time
// scalar path on a fresh machine: the reference the batched engine is
// validated against (cmd/validate, TestBatchedReplayEquivalence).
func ReplayTraceScalar(t *trace.Trace, v Version, o Options) Result {
	return new(Runner).simulate(v, o.normalized(), func(m *sim.Machine) { t.ReplayScalar(m) })
}
