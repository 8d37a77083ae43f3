// Dbquery: assemble an analytical query over the in-memory relational
// substrate — a predicated scan feeding a hash-join probe — and compare the
// four schemes on it. This mirrors how the paper's TPC workloads are built
// and shows the region detector splitting a query plan into a
// compiler-owned scan phase and a hardware-owned probe phase.
//
//	go run ./examples/dbquery
package main

import (
	"fmt"

	"selcache/internal/core"
	"selcache/internal/db"
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

const (
	nOrders    = 24576
	nCustomers = 4096
	reps       = 3
)

func build() *loopir.Program {
	sp := mem.NewSpace()
	rng := db.NewRNG(0xE8A17)
	orders := db.GenOrders(sp, rng, nOrders, nCustomers)
	cust := db.GenCustomer(sp, rng, nCustomers)
	custIdx := db.NewHashIndex(sp, cust, "custkey", 1<<12)
	for r := 0; r < cust.Rows(); r++ {
		custIdx.InsertQuiet(r)
	}
	qual := mem.NewArray(sp, "qual", 8, nOrders, 1)
	revenue := mem.NewScalar(sp, "revenue", 8)

	prog := &loopir.Program{Name: "dbquery"}
	for rep := 0; rep < reps; rep++ {
		s := fmt.Sprintf("%d", rep)

		// Phase 1 (analyzable): predicated column scan writing the
		// qualification vector. The compiler may re-lay the row-store
		// into a column store for it.
		scan := &loopir.Stmt{Name: "scan", Compute: 6, Refs: []loopir.Ref{
			orders.ScanRef("r"+s, "orderdate", false),
			orders.ScanRef("r"+s, "totalprice", false),
			orders.ScanRef("r"+s, "shippriority", false),
			loopir.AffineRef(qual, true, loopir.VarExpr("r"+s), loopir.ConstExpr(0)),
			loopir.ScalarRef(revenue, false),
			loopir.ScalarRef(revenue, true),
		}}
		for r := 0; r < nOrders; r++ {
			q := int64(0)
			if orders.Get(r, "orderdate") < db.DateEpochDays/3 && orders.Get(r, "shippriority") > 2 {
				q = 1
			}
			qual.SetData(q, r, 0)
		}
		prog.Body = append(prog.Body, loopir.ForLoop("r"+s, nOrders, scan))

		// Phase 2 (irregular): probe the customer index for qualifying
		// orders.
		probe := &loopir.Stmt{
			Name: "probe",
			Refs: []loopir.Ref{
				loopir.OpaqueRef(loopir.ClassPointer, qual, false),
				loopir.OpaqueRef(loopir.ClassIndexed, custIdx.Buckets, false),
				loopir.OpaqueRef(loopir.ClassIndexed, cust.Cells, false),
			},
			Run: func(ctx *loopir.Ctx) {
				r := ctx.V("p" + s)
				ctx.Compute(2)
				if ctx.LoadVal(qual, r, 0) == 0 {
					return
				}
				if row, ok := custIdx.Lookup(ctx, orders.Get(r, "custkey")); ok {
					cust.LoadVal(ctx, row, "mktsegment")
				}
			},
		}
		prog.Body = append(prog.Body, loopir.ForLoop("p"+s, nOrders, probe))
	}
	return prog
}

func main() {
	o := core.DefaultOptions()
	base := core.Run(build, core.Base, o)
	fmt.Printf("query plan: %d-row scan + hash probe, %d executions\n", nOrders, reps)
	fmt.Printf("%-14s %14s %9s %10s\n", "version", "cycles", "L1 miss", "improv")
	for _, v := range core.Versions() {
		r := core.Run(build, v, o)
		fmt.Printf("%-14s %14d %8.2f%% %9.2f%%\n",
			v, r.Sim.Cycles, 100*r.Sim.L1.MissRate(), core.Improvement(base, r))
	}
	sel := core.Run(build, core.Selective, o)
	fmt.Printf("\nlayout changes by the compiler (row-store -> column-store): %d\n",
		sel.Opt.LayoutsChanged)
	fmt.Printf("dynamic ON/OFF instructions executed: %d\n", sel.Sim.Markers)
}
