package selcache_test

import (
	"testing"

	"selcache/internal/core"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

// TestBatchedReplayEquivalence is the golden suite for the batched block
// replay engine: for every workload × version cell, a recorded trace
// replayed through the batched path must produce RunStats byte-identical to
// the scalar event-at-a-time path (WallNanos, the one host-timing field,
// zeroed). Cycle counts, every cache/TLB/MAT counter, and the float cycle
// accumulation order are all covered by the struct compare.
//
// Under -short it spot-checks one workload per access class; the full
// matrix (13 × 5 cells) runs otherwise, the race-detector CI job included.
func TestBatchedReplayEquivalence(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = nil
		for _, name := range []string{"applu", "vpenta", "tpc-c"} {
			w, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("short-mode workload %q missing", name)
			}
			ws = append(ws, w)
		}
	}
	o := core.DefaultOptions()
	// One reusable block across all cells, as the sweep engine uses them:
	// equivalence must hold with a dirty recycled buffer, not just a fresh
	// one per replay.
	blk := trace.NewBlock(trace.DefaultBlockEvents)
	for _, w := range ws {
		for _, v := range core.Versions() {
			t.Run(w.Name+"/"+v.String(), func(t *testing.T) {
				tr, _, _ := core.RecordTrace(w.Build, v, o)
				sc := core.ReplayTraceScalar(tr, v, o)
				ba := core.ReplayTraceBuffered(tr, v, o, blk)
				sc.Sim.WallNanos, ba.Sim.WallNanos = 0, 0
				if sc.Sim != ba.Sim {
					t.Errorf("batched replay diverges from scalar\nscalar:  %+v\nbatched: %+v", sc.Sim, ba.Sim)
				}
			})
		}
	}
}
