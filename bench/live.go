package main

import (
	"fmt"
	"math/rand"

	"selcache/internal/core"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// live runs the Table 3 benchmarks through core.Run — the interpreter
// feeding sim.Machine.Access event by event, with no trace cache — under
// every machine configuration with the Expected-Hit-Count replacement
// policy, way memoization and the energy model on.
type live struct {
	benches []workloads.Workload
	configs []sim.Config
	order   []int // seed-shuffled (configuration, version) pairs
	golden  map[string]string
	// probe holds each program's interpreter-only cost, measured by setup.
	probe map[string]probeResult
}

type probeResult struct {
	nsPerEvent float64
	events     uint64
}

func newLive(seed int64) *live {
	l := &live{benches: benchList(table3Benches), configs: sim.ExperimentConfigs()}
	l.order = rand.New(rand.NewSource(seed)).Perm(len(l.configs) * core.NumVersions)
	return l
}

func (l *live) pass() int                       { return len(l.order) * len(l.benches) }
func (l *live) tailPct() float64                { return 90 }
func (l *live) tracedOps() int                  { return l.pass() }
func (l *live) check(*outcome)                  {}
func (l *live) layerMetrics(map[string]float64) {}

// run maps operation i to its benchmark, version and options; the three
// benchmarks of one (configuration, version) pair are adjacent.
func (l *live) run(i int) (workloads.Workload, core.Version, core.Options) {
	pair := l.order[i/len(l.benches)]
	o := core.DefaultOptions()
	o.Machine = l.configs[pair/core.NumVersions]
	o.Policy = sim.PolicyEHC
	o.WayMemo = true
	o.Energy = true
	return l.benches[i%len(l.benches)], core.Version(pair % core.NumVersions), o
}

func (l *live) key(i int) string {
	w, v, o := l.run(i)
	return w.Name + "|" + v.String() + "|" + o.Machine.Name
}

// setup interprets every program variant into a counting emitter: the
// event counts every run must reproduce, and the interpreter's own cost
// per event that the traced run subtracts from loopir.Run into a machine.
func (l *live) setup(*spanRec) error {
	l.probe = map[string]probeResult{}
	for _, w := range l.benches {
		for _, v := range core.Versions() {
			ns, ev := interpNsPerEvent(w.Build, v, core.DefaultOptions())
			l.probe[w.Name+"|"+v.String()] = probeResult{ns, ev}
		}
	}
	return nil
}

func (l *live) op(_, i int) any {
	w, v, o := l.run(i)
	return core.Run(w.Build, v, o).Sim
}

func (l *live) tracedOp(rec *spanRec, root tok, _, i int) any {
	w, v, o := l.run(i)
	return tracedRun(rec, root, w.Build, v, o, l.probe[w.Name+"|"+v.String()].nsPerEvent).Sim
}

func (l *live) verify(i int, out any) error {
	st, err := asStats(out)
	if err != nil {
		return err
	}
	w, v, _ := l.run(i)
	key := l.key(i)
	if d := statsDigest(st); d != l.golden[key] {
		return fmt.Errorf("live %s: stats digest %s, golden %s", key, d, l.golden[key])
	}
	if p := l.probe[w.Name+"|"+v.String()]; st.Instructions != p.events {
		return fmt.Errorf("live %s: %d instructions, interpreter counted %d", key, st.Instructions, p.events)
	}
	return nil
}
