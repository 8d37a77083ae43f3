// Adaptive: compare the two hardware mechanisms (MAT/SLDT cache bypassing
// and victim caches) across the whole benchmark suite and all six machine
// configurations — the view behind the paper's Table 3 — and print where
// each mechanism wins.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"

	"selcache"
	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/sim"
)

func main() {
	fmt.Println("selective scheme, bypass vs victim mechanism, base machine:")
	fmt.Printf("%-10s %12s %12s %8s\n", "benchmark", "sel/bypass", "sel/victim", "winner")

	ob := core.DefaultOptions()
	ob.Mechanism = sim.HWBypass
	ov := ob
	ov.Mechanism = sim.HWVictim

	bypass := experiments.RunSweep(ob, nil, experiments.Plan{})
	victim := experiments.RunSweep(ov, nil, experiments.Plan{})

	for i := range bypass.Rows {
		b := bypass.Rows[i].Improv[core.Selective]
		v := victim.Rows[i].Improv[core.Selective]
		winner := "bypass"
		if v > b+0.05 {
			winner = "victim"
		} else if b <= v+0.05 {
			winner = "tie"
		}
		fmt.Printf("%-10s %11.2f%% %11.2f%% %8s\n", bypass.Rows[i].Benchmark, b, v, winner)
	}
	fmt.Printf("%-10s %11.2f%% %11.2f%%\n\n", "average",
		bypass.Avg[core.Selective], victim.Avg[core.Selective])

	fmt.Println("averages across the six machine configurations (Table 3 view):")
	rows := selcache.Table3()
	fmt.Printf("%-16s %10s %10s\n", "experiment", "sel/bypass", "sel/victim")
	for _, r := range rows {
		fmt.Printf("%-16s %9.2f%% %9.2f%%\n", r.Config, r.SelectiveBypass, r.SelectiveVictim)
	}
}
