// Adaptive: compare the two hardware mechanisms (MAT/SLDT cache bypassing
// and victim caches) across the whole benchmark suite and all six machine
// configurations — the view behind the paper's Table 3 — and print where
// each mechanism wins.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"

	"selcache/internal/core"
	"selcache/internal/experiments"
)

func main() {
	// One sweep matrix: the per-configuration averages and, as its first
	// two sweeps, the base machine's bypass and victim sweeps.
	rows, sweeps := experiments.Table3(experiments.Plan{})
	bypass, victim := sweeps[0], sweeps[1]

	fmt.Println("selective scheme, bypass vs victim mechanism, base machine:")
	fmt.Printf("%-10s %12s %12s %8s\n", "benchmark", "sel/bypass", "sel/victim", "winner")
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
	fmt.Printf("%-16s %10s %10s\n", "experiment", "sel/bypass", "sel/victim")
	for _, r := range rows {
		fmt.Printf("%-16s %9.2f%% %9.2f%%\n", r.Config, r.SelectiveBypass, r.SelectiveVictim)
	}
}
