package workloads

import (
	"selcache/internal/db"
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// The three TPC-D queries share a vectorized-execution structure: an outer
// chunk loop whose body is an analyzable column-scan loop (software
// territory — the layout pass turns the row-store into a column store)
// followed by an irregular per-row loop (hash probes, grouped aggregation —
// hardware territory). Region detection marks the two inner loops
// differently, so the chunk loop becomes a mixed region and the selective
// scheme toggles the mechanism every chunk, paying the ON/OFF overhead the
// paper accounts for.

const (
	tpcdChunk    = 1024
	tpcdLineitem = 39 * tpcdChunk // 39936 rows
)

// TPCDQ1 is the pricing-summary query: full lineitem scan with grouped
// aggregation into a tiny returnflag/linestatus table.
func TPCDQ1() Workload {
	return Workload{
		Name:   "tpc-d.q1",
		Class:  Mixed,
		Models: "TPC-D Q1 (scan + grouped aggregation)",
		Build:  buildQ1,
	}
}

func buildQ1() *loopir.Program {
	sp := mem.NewSpace()
	rng := db.NewRNG(0xD001)
	li := db.GenLineitem(sp, rng, tpcdLineitem, tpcdLineitem/4)
	groups := mem.NewArray(sp, "q1groups", 8, 8, 8)
	grpvec := mem.NewArray(sp, "q1grpvec", 8, tpcdLineitem, 1)

	// Two full-table phases per execution: the projection scan computes
	// each row's group code into a vector (fully analyzable — the
	// compiler turns the row-store into a column store for it), then the
	// aggregation pass walks the vector updating the grouped accumulators
	// (indexed accesses, hardware territory).
	prog := &loopir.Program{Name: "tpc-d.q1"}
	for r := 0; r < tpcdLineitem; r++ {
		grp := int64(-1)
		if li.Get(r, "shipdate") < db.DateEpochDays-90 {
			grp = li.Get(r, "returnflag")*2 + li.Get(r, "linestatus")
		}
		grpvec.SetData(grp, r, 0)
	}
	for rep := 0; rep < 3; rep++ {
		s := itoa(rep)
		i := "i1" + s

		scan := &loopir.Stmt{Name: "q1-scan", Compute: 8, Refs: []loopir.Ref{
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("quantity"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("extendedprice"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("discount"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("tax"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("returnflag"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("linestatus"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("shipdate"))),
			loopir.AffineRef(grpvec, true, v(i), c(0)),
		}}
		prog.Body = append(prog.Body, loopir.ForLoop(i, tpcdLineitem, scan))

		agg := &loopir.Stmt{
			Name: "q1-agg",
			Refs: []loopir.Ref{
				loopir.OpaqueRef(loopir.ClassPointer, grpvec, false),
				loopir.OpaqueRef(loopir.ClassIndexed, groups, true),
			},
			Run: func(ctx *loopir.Ctx) {
				r := ctx.V("g1" + s)
				ctx.Compute(4)
				grp := int(ctx.LoadVal(grpvec, r, 0))
				if grp < 0 {
					return
				}
				ctx.LoadVal(groups, grp, 0)
				ctx.StoreVal(groups, li.Get(r, "quantity"), grp, 0)
				ctx.Load(groups, grp, 1)
				ctx.Store(groups, grp, 1)
			},
		}
		prog.Body = append(prog.Body, loopir.ForLoop("g1"+s, tpcdLineitem, agg))
	}
	return prog
}

// TPCDQ3 is the shipping-priority query: hash join of customer, orders and
// lineitem with a top-k selection at the end.
func TPCDQ3() Workload {
	return Workload{
		Name:   "tpc-d.q3",
		Class:  Mixed,
		Models: "TPC-D Q3 (customer-orders-lineitem hash joins)",
		Build:  buildQ3,
	}
}

const (
	q3Customers = 8000
	q3Orders    = 32 * tpcdChunk // 32768
)

func buildQ3() *loopir.Program {
	sp := mem.NewSpace()
	rng := db.NewRNG(0xD003)
	custT := db.GenCustomer(sp, rng, q3Customers)
	ordT := db.GenOrders(sp, rng, q3Orders, q3Customers)
	li := db.GenLineitem(sp, rng, tpcdLineitem, q3Orders)
	custIdx := db.NewHashIndex(sp, custT, "custkey", 1<<13)
	ordIdx := db.NewHashIndex(sp, ordT, "orderkey", 1<<13)
	result := mem.NewArray(sp, "q3result", 8, 4096, 2)

	prog := &loopir.Program{Name: "tpc-d.q3"}
	for rep := 0; rep < 2; rep++ {
		s := itoa(rep)

		// Phase 1: recycle both hash tables, then build the customer
		// hash index (irregular build loop).
		prog.Body = append(prog.Body,
			custIdx.ResetStmt("cust-reset"),
			ordIdx.ResetStmt("ord-reset"),
			loopir.ForLoop("cb"+s, custT.Rows(),
				withVar(custIdx.PerRowBuildStmt("cust-build", "r"), "r", "cb"+s)))

		// Phase 2: scan orders; probe customer; qualifying orders go
		// into the order hash index.
		ko, io, po := "ko"+s, "io"+s, "po"+s
		orow := loopir.AxPlusB(tpcdChunk, ko, 0).Add(v(io))
		oscan := &loopir.Stmt{Name: "q3-oscan", Compute: 6, Refs: []loopir.Ref{
			loopir.AffineRef(ordT.Cells, false, orow, c(ordT.Col("custkey"))),
			loopir.AffineRef(ordT.Cells, false, orow, c(ordT.Col("orderdate"))),
			loopir.AffineRef(ordT.Cells, false, orow, c(ordT.Col("shippriority"))),
		}}
		oprobe := &loopir.Stmt{
			Name: "q3-oprobe",
			Refs: []loopir.Ref{
				loopir.OpaqueRef(loopir.ClassIndexed, custIdx.Buckets, false),
				loopir.OpaqueRef(loopir.ClassPointer, custT.Cells, false),
				loopir.OpaqueRef(loopir.ClassIndexed, ordIdx.Buckets, true),
			},
			Run: func(ctx *loopir.Ctx) {
				r := ctx.V(ko)*tpcdChunk + ctx.V(po)
				ctx.Compute(4)
				if ordT.Get(r, "orderdate") >= db.DateEpochDays/2 {
					return
				}
				crow, ok := custIdx.Lookup(ctx, ordT.Get(r, "custkey"))
				if !ok {
					return
				}
				if custT.LoadVal(ctx, crow, "mktsegment") != 1 {
					return
				}
				ordIdx.Insert(ctx, r)
			},
		}
		prog.Body = append(prog.Body,
			loopir.ForLoop(ko, q3Orders/tpcdChunk,
				loopir.ForLoop(io, tpcdChunk, oscan),
				loopir.ForLoop(po, tpcdChunk, oprobe),
			))

		// Phase 3: scan lineitem; probe the order index; accumulate
		// revenue per qualifying order.
		kl, il, pl := "kl"+s, "il"+s, "pl"+s
		lrow := loopir.AxPlusB(tpcdChunk, kl, 0).Add(v(il))
		lscan := &loopir.Stmt{Name: "q3-lscan", Compute: 6, Refs: []loopir.Ref{
			loopir.AffineRef(li.Cells, false, lrow, c(li.Col("orderkey"))),
			loopir.AffineRef(li.Cells, false, lrow, c(li.Col("extendedprice"))),
			loopir.AffineRef(li.Cells, false, lrow, c(li.Col("discount"))),
			loopir.AffineRef(li.Cells, false, lrow, c(li.Col("shipdate"))),
		}}
		lprobe := &loopir.Stmt{
			Name: "q3-lprobe",
			Refs: []loopir.Ref{
				loopir.OpaqueRef(loopir.ClassIndexed, ordIdx.Buckets, false),
				loopir.OpaqueRef(loopir.ClassPointer, ordT.Cells, false),
				loopir.OpaqueRef(loopir.ClassIndexed, result, true),
			},
			Run: func(ctx *loopir.Ctx) {
				r := ctx.V(kl)*tpcdChunk + ctx.V(pl)
				ctx.Compute(4)
				if li.Get(r, "shipdate") < db.DateEpochDays/2 {
					return
				}
				orow, ok := ordIdx.Lookup(ctx, li.Get(r, "orderkey"))
				if !ok {
					return
				}
				slot := orow & 4095
				ctx.LoadVal(result, slot, 0)
				ctx.StoreVal(result, li.Get(r, "extendedprice"), slot, 0)
				ctx.Store(result, slot, 1)
			},
		}
		prog.Body = append(prog.Body,
			loopir.ForLoop(kl, tpcdLineitem/tpcdChunk,
				loopir.ForLoop(il, tpcdChunk, lscan),
				loopir.ForLoop(pl, tpcdChunk, lprobe),
			))

		// Phase 4: top-k selection over the result slots (small,
		// sequential, analyzable).
		top := stmt("q3-topk", 5,
			loopir.AffineRef(result, false, v("t"), c(0)),
			loopir.AffineRef(result, false, v("t"), c(1)),
		)
		prog.Body = append(prog.Body,
			loopir.ForLoop("tk"+s, 4096, renameStmtVars(top, "t", "tk"+s)))
	}
	return prog
}

// TPCDQ6 is the forecasting-revenue-change query: a predicated scan over
// four lineitem columns with scalar aggregation, plus a rare dimension
// lookup for qualifying rows.
func TPCDQ6() Workload {
	return Workload{
		Name:   "tpc-d.q6",
		Class:  Mixed,
		Models: "TPC-D Q6 (predicated scan aggregate)",
		Build:  buildQ6,
	}
}

func buildQ6() *loopir.Program {
	sp := mem.NewSpace()
	rng := db.NewRNG(0xD006)
	li := db.GenLineitem(sp, rng, tpcdLineitem, tpcdLineitem/4)
	revenue := mem.NewScalar(sp, "revenue", 8)
	qual := mem.NewArray(sp, "q6qual", 8, tpcdLineitem, 1)
	dim := newChainMap(sp, "datedim", 512, 2048)
	for d := 0; d < 2048; d++ {
		dim.insertQuiet(int64(d), int64(d%7))
	}

	// The query runs in two full-table phases (as a blocked executor
	// would at materialization boundaries): a predicated column scan that
	// writes a qualification vector — fully analyzable, so the compiler
	// owns it — followed by an irregular pass over the vector probing the
	// date dimension for qualifying rows.
	prog := &loopir.Program{Name: "tpc-d.q6"}
	for rep := 0; rep < 3; rep++ {
		s := itoa(rep)
		i := "i6" + s

		scan := &loopir.Stmt{Name: "q6-scan", Compute: 10, Refs: []loopir.Ref{
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("shipdate"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("discount"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("quantity"))),
			loopir.AffineRef(li.Cells, false, v(i), c(li.Col("extendedprice"))),
			loopir.AffineRef(qual, true, v(i), c(0)),
			loopir.ScalarRef(revenue, false),
			loopir.ScalarRef(revenue, true),
		}}
		// Keep the qualification vector's backing data in sync for the
		// probe phase (the predicate itself is pure compute).
		for r := 0; r < tpcdLineitem; r++ {
			q := int64(0)
			if li.Get(r, "discount") <= 6 && li.Get(r, "quantity") < 36 &&
				li.Get(r, "shipdate") < db.DateEpochDays/2 {
				q = 1
			}
			qual.SetData(q, r, 0)
		}
		prog.Body = append(prog.Body, loopir.ForLoop(i, tpcdLineitem, scan))

		probe := &loopir.Stmt{
			Name: "q6-dim",
			Refs: append(dim.opaqueRefs(false),
				loopir.OpaqueRef(loopir.ClassPointer, qual, false)),
			Run: func(ctx *loopir.Ctx) {
				r := ctx.V("p6" + s)
				ctx.Compute(3)
				if ctx.LoadVal(qual, r, 0) == 0 {
					return
				}
				dim.lookup(ctx, li.Get(r, "shipdate")%2048)
			},
		}
		prog.Body = append(prog.Body, loopir.ForLoop("p6"+s, tpcdLineitem, probe))
	}
	return prog
}
