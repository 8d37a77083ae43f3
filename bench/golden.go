package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"selcache/internal/core"
	"selcache/internal/corpus"
	"selcache/internal/experiments"
	"selcache/internal/parallel"
	"selcache/internal/report"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// The golden digests pin every output the workloads check. Regenerate them
// with -regen-golden after an intended model change (bench/README.md).
//
//go:embed golden/*.json
var goldenFiles embed.FS

// table3Cell is one Table 3 cell: a benchmark under one machine
// configuration and mechanism, through all five versions.
type table3Cell struct {
	Bench   string                   `json:"bench"`
	Config  string                   `json:"config"`
	Mech    string                   `json:"mech"`
	Cycles  [core.NumVersions]uint64 `json:"cycles"`
	Digests [core.NumVersions]string `json:"digests"`
}

// corpusGolden pins the corpus workload's per-kernel digests at one seed.
type corpusGolden struct {
	Seed    int64    `json:"seed"`
	Digests []string `json:"digests"`
}

func loadGolden(name string, v any) error {
	data, err := goldenFiles.ReadFile("golden/" + name)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	return nil
}

func writeGolden(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// cellKey names a (benchmark, configuration, mechanism) cell.
func cellKey(bench string, o core.Options) string {
	return bench + "|" + o.Machine.Name + "|" + o.Mechanism.String()
}

// table3Options lists Table 3's twelve option sets in its order: per
// machine configuration, bypass then victim.
func table3Options() []core.Options {
	var out []core.Options
	for _, cfg := range sim.ExperimentConfigs() {
		for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
			o := core.DefaultOptions()
			o.Machine = cfg
			o.Mechanism = mech
			out = append(out, o)
		}
	}
	return out
}

// renderTable3 renders Table 3 from golden cycle counts with the same
// aggregation the experiments package applies to live rows.
func renderTable3(cells []table3Cell) ([]byte, error) {
	byKey := map[string]table3Cell{}
	for _, c := range cells {
		byKey[c.Bench+"|"+c.Config+"|"+c.Mech] = c
	}
	opts := table3Options()
	sweeps := make([]experiments.Sweep, len(opts))
	for j, o := range opts {
		var rows []experiments.Row
		for _, w := range workloads.All() {
			c, ok := byKey[cellKey(w.Name, o)]
			if !ok {
				return nil, fmt.Errorf("table3 golden: no cell %s", cellKey(w.Name, o))
			}
			row := experiments.Row{Benchmark: w.Name, Class: w.Class, Cycles: c.Cycles}
			base := core.Result{Sim: sim.RunStats{Cycles: c.Cycles[core.Base]}}
			for v := range row.Improv {
				row.Improv[v] = core.Improvement(base, core.Result{Sim: sim.RunStats{Cycles: c.Cycles[v]}})
			}
			rows = append(rows, row)
		}
		sweeps[j] = experiments.Assemble(o, rows)
	}
	var out []experiments.Table3Row
	for j := 0; j < len(sweeps); j += 2 {
		bp, vc := sweeps[j], sweeps[j+1]
		out = append(out, experiments.Table3Row{
			Config:          bp.Config.Name,
			PureSoftware:    bp.Avg[core.PureSoftware],
			CacheBypass:     bp.Avg[core.PureHardware],
			CombinedBypass:  bp.Avg[core.Combined],
			SelectiveBypass: bp.Avg[core.Selective],
			VictimCache:     vc.Avg[core.PureHardware],
			CombinedVictim:  vc.Avg[core.Combined],
			SelectiveVictim: vc.Avg[core.Selective],
		})
	}
	var buf bytes.Buffer
	report.WriteTable3(&buf, out)
	return buf.Bytes(), nil
}

// checkTable3Render checks that the Table 3 rendered from the golden cells
// is byte-equal to the Table 3 block of the committed experiments output.
func checkTable3Render(root string, cells []table3Cell) error {
	got, err := renderTable3(cells)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		return fmt.Errorf("table3 render check: %w", err)
	}
	i := bytes.Index(want, []byte("Table 3:"))
	if i < 0 || !bytes.HasPrefix(want[i:], got) {
		return fmt.Errorf("table3 render check: Table 3 from the golden cells differs from experiments_output.txt")
	}
	return nil
}

// regenGoldens recomputes every golden file from the library's batch entry
// points and writes them into dir. It refuses to write Table 3 cells that
// do not render the committed Table 3.
func regenGoldens(root, dir string) error {
	var cells []table3Cell
	opts := table3Options()
	for _, w := range workloads.All() {
		// One benchmark at a time keeps only its own streams resident.
		tc := experiments.NewTraceCache("")
		rows := parallel.Map(workers, len(opts), func(j int) experiments.Row {
			return experiments.RunRow(w, opts[j], tc)
		})
		for j, row := range rows {
			c := table3Cell{Bench: w.Name, Config: opts[j].Machine.Name, Mech: opts[j].Mechanism.String(), Cycles: row.Cycles}
			for v := range row.Stats {
				c.Digests[v] = statsDigest(row.Stats[v])
			}
			cells = append(cells, c)
		}
	}
	if err := checkTable3Render(root, cells); err != nil {
		return err
	}
	if err := writeGolden(dir, "table3.json", cells); err != nil {
		return err
	}

	lw := newLive(1)
	live := map[string]string{}
	runs := parallel.Map(workers, lw.pass(), func(i int) string {
		w, v, o := lw.run(i)
		return statsDigest(core.Run(w.Build, v, o).Sim)
	})
	for i, d := range runs {
		live[lw.key(i)] = d
	}
	if err := writeGolden(dir, "live.json", live); err != nil {
		return err
	}

	row, err := cellRow(setupCell())
	if err != nil {
		return err
	}
	var served [core.NumVersions]string
	for v := range served {
		served[v] = statsDigest(row.Stats[v])
	}
	if err := writeGolden(dir, "serve.json", served); err != nil {
		return err
	}

	const seed = 1
	ks, _, err := corpus.Build(corpusSpec(seed))
	if err != nil {
		return err
	}
	o := core.DefaultOptions()
	sweep, ests := corpus.Sweep(ks, o, workers), corpus.Estimates(ks, o, workers)
	g := corpusGolden{Seed: seed}
	for i := range ks {
		g.Digests = append(g.Digests, kernelDigest(sweep[i], ests[i]))
	}
	return writeGolden(dir, "corpus.json", g)
}
