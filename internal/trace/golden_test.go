package trace_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"selcache/internal/core"
	"selcache/internal/sim"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden .sctrace files under testdata/")

// goldenVersions covers one version per stream class; the other versions
// replay the same captures by construction (core.Version.Stream).
var goldenVersions = []core.Version{core.Base, core.PureSoftware, core.Selective}

// TestGoldenTraces re-records the tiny workload variants and compares each
// stream's encoding byte for byte against its committed .sctrace capture.
// A failure means the event stream some (workload, stream-class) pair
// emits has changed — either an intended compiler/workload/region change
// (regenerate the goldens with `go test ./internal/trace -run
// TestGoldenTraces -update` and review the stats shift) or an accidental
// one (fix it). The diff pinpoints the first diverging emitter call.
func TestGoldenTraces(t *testing.T) {
	for _, w := range workloads.TinyGolden() {
		for _, v := range goldenVersions {
			name := fmt.Sprintf("%s-%s", w.Name, v.Stream())
			t.Run(name, func(t *testing.T) {
				got, _, _ := core.RecordTrace(w.Build, v, core.DefaultOptions())
				path := filepath.Join("testdata", name+".sctrace")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := got.WriteFile(path); err != nil {
						t.Fatal(err)
					}
					t.Logf("rewrote %s: %d events, %d bytes", path, got.Meta.Events, got.EncodedSize())
					return
				}
				var want *trace.Trace
				data, err := os.ReadFile(path)
				if err == nil {
					want, err = trace.Decode(data)
				}
				if err != nil {
					t.Fatalf("reading golden: %v\n(regenerate with: go test ./internal/trace -run TestGoldenTraces -update)", err)
				}
				enc := got.Encode()
				if bytes.Equal(enc, data) {
					// The recorder's words are final: they must be the
					// words its own encoding packs to, and its size is
					// counted as it records.
					if !slices.Equal(words(got), words(want)) {
						t.Fatal("recorded words differ from the words their encoding decodes to")
					}
					if got.EncodedSize() != len(enc) {
						t.Fatalf("EncodedSize %d, encoding holds %d bytes", got.EncodedSize(), len(enc))
					}
					return
				}
				if idx, ew, eg, diverged := trace.FirstDivergence(want, got); diverged {
					t.Fatalf("stream diverges from golden at event %d:\n  golden: %s\n  got:    %s\ngolden meta %+v\ngot meta    %+v",
						idx, ew, eg, want.Meta, got.Meta)
				}
				// Same call sequence, different bytes: the encoder changed.
				t.Fatalf("encoding changed for an identical call sequence\ngolden meta %+v (%d bytes)\ngot meta    %+v (%d bytes)",
					want.Meta, want.EncodedSize(), got.Meta, got.EncodedSize())
			})
		}
	}
}

// words collects a trace's packed words through its block cursor.
func words(t *trace.Trace) []uint64 {
	var out []uint64
	cur, _ := t.BlockCursor()
	blk := trace.NewBlock(trace.DefaultBlockEvents)
	for cur.Next(blk) {
		out = append(out, blk.Words()...)
	}
	return out
}

// TestGoldenReplayEquivalence replays each golden through the full machine
// and checks the statistics match a live run of the same tiny workload —
// the goldens aren't just stable, they still describe the current programs.
func TestGoldenReplayEquivalence(t *testing.T) {
	if *update {
		t.Skip("goldens being rewritten")
	}
	o := core.DefaultOptions()
	for _, w := range workloads.TinyGolden() {
		for _, v := range goldenVersions {
			name := fmt.Sprintf("%s-%s", w.Name, v.Stream())
			t.Run(name, func(t *testing.T) {
				g, err := trace.ReadFile(filepath.Join("testdata", name+".sctrace"))
				if err != nil {
					t.Fatal(err)
				}
				live := core.Run(w.Build, v, o)
				replayed := core.ReplayTrace(g, v, o)
				ls, rs := live.Sim, replayed.Sim
				ls.WallNanos, rs.WallNanos = 0, 0
				if ls != rs {
					t.Fatalf("replayed stats differ from live run:\nlive   %+v\nreplay %+v", ls, rs)
				}
			})
		}
	}
}

// TestReplayLeavesWordsUnchanged replays every golden through EmitBlock on
// each mechanism and checks the stream still encodes to its file's bytes:
// blocks alias the trace's shared packed words, and no consumer may write
// through them.
func TestReplayLeavesWordsUnchanged(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "tiny-*.sctrace"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden traces found (err %v)", err)
	}
	blk := trace.NewBlock(trace.DefaultBlockEvents)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []sim.Options{
			{},
			{Mechanism: sim.HWBypass, HonorMarkers: true},
			{Mechanism: sim.HWVictim, InitiallyOn: true, Policy: sim.PolicyEHC, WayMemo: true, Energy: true},
		} {
			m := sim.NewMachine(sim.Base(), o)
			tr.ReplayBatched(m, blk)
			if m.Finish().MemOps != tr.Meta.Accesses {
				t.Fatalf("%s: replay reached %d accesses of %d", path, m.Finish().MemOps, tr.Meta.Accesses)
			}
		}
		if !bytes.Equal(tr.Encode(), data) {
			t.Fatalf("%s: encoding changed after replay through EmitBlock", path)
		}
	}
}
