package main

import (
	"fmt"
	"math/rand"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

// table3Benches are the Table 3 benchmarks the table3 and live workloads
// run: one per class (compress irregular, vpenta regular, tpc-c mixed),
// chosen for similar cost per cell so that a run cut off by the clock
// still measures the three in equal shares. All thirteen would hold about
// 740 MB of packed streams and take 38 s per pass on two workers.
var table3Benches = []string{"compress", "vpenta", "tpc-c"}

func benchList(names []string) []workloads.Workload {
	out := make([]workloads.Workload, len(names))
	for i, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			panic("unknown benchmark " + n) // the list above is fixed
		}
		out[i] = w
	}
	return out
}

// table3 replays the recorded streams of Table 3's cells through the
// batched simulator: trace decode plus sim.Machine.EmitBlock, the path
// behind the paper's headline table.
type table3 struct {
	benches []workloads.Workload
	opts    []core.Options
	order   []int // seed-shuffled (option set, version) pairs
	golden  map[string]table3Cell
	cells   []table3Cell
	tc      *experiments.TraceCache
	blocks  [workers]*trace.Block
	packed  int64 // packed words across the distinct streams
}

func newTable3(seed int64) (*table3, error) {
	b := &table3{benches: benchList(table3Benches), opts: table3Options(), golden: map[string]table3Cell{}}
	if err := loadGolden("table3.json", &b.cells); err != nil {
		return nil, err
	}
	for _, c := range b.cells {
		b.golden[c.Bench+"|"+c.Config+"|"+c.Mech] = c
	}
	b.order = rand.New(rand.NewSource(seed)).Perm(len(b.opts) * core.NumVersions)
	for i := range b.blocks {
		b.blocks[i] = trace.NewBlock(trace.DefaultBlockEvents)
	}
	return b, nil
}

func (b *table3) pass() int        { return len(b.order) * len(b.benches) }
func (b *table3) tailPct() float64 { return 90 }
func (b *table3) tracedOps() int   { return b.pass() }
func (b *table3) layerMetrics(m map[string]float64) {
	st := b.tc.Stats()
	gets := st.Hits + st.Misses
	m["experiments.trace_cache.gets"] = float64(gets)
	m["experiments.trace_cache.hit_ratio"] = float64(st.Hits) / float64(gets)
	m["experiments.trace_cache.waits"] = float64(st.Waits)
	m["trace.encoded_mb"] = float64(st.Bytes) / 1e6
	m["trace.packed_mb"] = float64(b.packed*8) / 1e6
}

// setup records every stream the cells replay into a fresh trace cache and
// packs each one (its first BlockCursor call).
func (b *table3) setup(rec *spanRec) error {
	b.tc = experiments.NewTraceCache("")
	b.packed = 0
	seen := map[*trace.Trace]bool{}
	for _, w := range b.benches {
		for _, o := range b.opts {
			for _, v := range []core.Version{core.Base, core.PureSoftware, core.Selective} {
				root := rec.root(workers, 0, "setup.stream")
				sp := rec.child(root, "experiments.trace_cache.get")
				t := b.tc.Get(w, v, o)
				rec.end(sp, nil)
				if !seen[t] {
					seen[t] = true
					sp = rec.child(root, "trace.pack")
					cur, ok := t.BlockCursor()
					rec.end(sp, nil)
					if !ok {
						return fmt.Errorf("table3: %s %s stream does not pack", w.Name, v)
					}
					if rec != nil {
						blk := b.blocks[0]
						for cur.Next(blk) {
							b.packed += int64(blk.Len())
						}
					}
				}
				rec.end(root, map[string]any{"bench": w.Name, "stream": v.Stream().String()})
			}
		}
	}
	return nil
}

// cell maps operation i to its benchmark, option set and version. The
// three benchmarks of one (option set, version) pair are adjacent, so any
// prefix of the list holds them in near-equal shares.
func (b *table3) cell(i int) (workloads.Workload, core.Options, core.Version) {
	pair := b.order[i/len(b.benches)]
	return b.benches[i%len(b.benches)], b.opts[pair/core.NumVersions], core.Version(pair % core.NumVersions)
}

func (b *table3) op(wk, i int) any {
	w, o, v := b.cell(i)
	return core.ReplayTraceBuffered(b.tc.Get(w, v, o), v, o, b.blocks[wk]).Sim
}

func (b *table3) tracedOp(rec *spanRec, root tok, wk, i int) any {
	w, o, v := b.cell(i)
	sp := rec.child(root, "experiments.trace_cache.get")
	t := b.tc.Get(w, v, o)
	rec.end(sp, nil)
	st, err := tracedReplay(rec, root, t, v, o, b.blocks[wk])
	if err != nil {
		return err
	}
	return st
}

func (b *table3) verify(i int, out any) error {
	st, err := asStats(out)
	if err != nil {
		return err
	}
	w, o, v := b.cell(i)
	key := cellKey(w.Name, o)
	if d, want := statsDigest(st), b.golden[key].Digests[v]; d != want {
		return fmt.Errorf("table3 %s %s: stats digest %s, golden %s", key, v, d, want)
	}
	return nil
}

func (b *table3) check(o *outcome) {
	o.attempted++
	if err := checkTable3Render(".", b.cells); err != nil {
		o.fail("%v", err)
	}
}
