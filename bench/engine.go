package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"selcache/internal/core"
	"selcache/internal/loopir"
	"selcache/internal/opt"
	"selcache/internal/regions"
	"selcache/internal/sim"
	"selcache/internal/trace"
)

// digest is a short content hash of v's JSON encoding; equal digests mean
// equal outputs.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // only plain result structs are hashed
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// statsDigest hashes a run's statistics without the one nondeterministic
// field, the host wall time.
func statsDigest(st sim.RunStats) string {
	st.WallNanos = 0
	return digest(st)
}

// asStats unwraps an operation output that is a run's statistics, or the
// error that replaced them.
func asStats(out any) (sim.RunStats, error) {
	switch v := out.(type) {
	case sim.RunStats:
		return v, nil
	case error:
		return sim.RunStats{}, v
	}
	return sim.RunStats{}, fmt.Errorf("unexpected output %T", out)
}

// tracedReplay is core.ReplayTraceBuffered with spans around machine
// construction, the replay and Finish. The replay span carries the
// per-block decode and EmitBlock times as attributes rather than one span
// per block, which keeps a trace to about 10^4 spans.
func tracedReplay(rec *spanRec, parent tok, t *trace.Trace, v core.Version, o core.Options, blk *trace.Block) (sim.RunStats, error) {
	o = o.Normalized()
	sp := rec.child(parent, "sim.new_machine")
	m := sim.NewMachine(o.Machine, core.SimOptions(v, o))
	rec.end(sp, nil)

	cur, ok := t.BlockCursor()
	if !ok {
		return sim.RunStats{}, fmt.Errorf("replay: stream does not pack")
	}
	sp = rec.child(parent, "sim.replay")
	var decode, emit time.Duration
	blocks := 0
	for {
		t0 := time.Now()
		more := cur.Next(blk)
		t1 := time.Now()
		decode += t1.Sub(t0)
		if !more {
			break
		}
		m.EmitBlock(blk)
		emit += time.Since(t1)
		blocks++
	}
	rec.end(sp, map[string]any{
		"decode_ns": int64(decode), "emit_ns": int64(emit),
		"blocks": blocks, "events": int64(t.Meta.Instructions()),
	})

	sp = rec.child(parent, "sim.finish")
	st := m.Finish()
	rec.end(sp, nil)
	return st, nil
}

// prepare is core.Prepare with a span around each compiler call, in its
// order: build the base program, then region detection (selective only),
// then the optimizer (every version that runs optimized code).
func prepare(rec *spanRec, parent tok, build core.Builder, v core.Version, o core.Options) (*loopir.Program, regions.Stats) {
	sp := rec.child(parent, "workloads.build")
	prog := build()
	rec.end(sp, nil)
	var rst regions.Stats
	if v == core.Selective {
		sp = rec.child(parent, "regions.detect")
		rst = regions.Detect(prog, o.Regions)
		rec.end(sp, nil)
	}
	if v == core.PureSoftware || v == core.Combined || v == core.Selective {
		sp = rec.child(parent, "opt.optimize")
		opt.Optimize(prog, o.Opt)
		rec.end(sp, nil)
	}
	return prog, rst
}

// tracedRun is core.Run with spans around each layer call. interpNs is the
// interpreter-only cost of this program per event, measured outside the
// span; the sim.run span carries events × interpNs as the interpreter's
// share of loopir.Run feeding the machine.
func tracedRun(rec *spanRec, parent tok, build core.Builder, v core.Version, o core.Options, interpNs float64) core.Result {
	o = o.Normalized()
	prog, rst := prepare(rec, parent, build, v, o)

	sp := rec.child(parent, "sim.new_machine")
	m := sim.NewMachine(o.Machine, core.SimOptions(v, o))
	rec.end(sp, nil)

	sp = rec.child(parent, "sim.run")
	loopir.Run(prog, m)
	events := m.Probe().Instructions
	rec.end(sp, map[string]any{"events": int64(events), "interp_ns": int64(interpNs * float64(events))})

	sp = rec.child(parent, "sim.finish")
	st := m.Finish()
	rec.end(sp, nil)
	return core.Result{Version: v, Sim: st, Regions: rst}
}

// interpNsPerEvent times loopir.Run of a prepared program into a counting
// emitter: the interpreter's cost per event without a simulator behind it.
func interpNsPerEvent(build core.Builder, v core.Version, o core.Options) (float64, uint64) {
	prog, _, _ := core.Prepare(build, v, o)
	t0 := time.Now()
	c := core.CountStats(prog)
	ns := float64(time.Since(t0).Nanoseconds())
	if c.Instructions == 0 {
		return 0, 0
	}
	return ns / float64(c.Instructions), c.Instructions
}
