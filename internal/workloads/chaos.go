package workloads

import (
	"selcache/internal/db"
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// Chaos models the CHAOS/unstructured-mesh kernel family: per-timestep
// edge relaxation through indirection arrays (gather forces from both end
// points of every edge, scatter updates back) followed by a regular
// grid-projection smoothing pass. The two phases alternate, giving the
// program the mixed regular/irregular structure the selective scheme is
// built for: the edge phase is hardware territory, the grid phase is
// compiler territory, and a naively always-on mechanism carries the edge
// phase's table state into the grid sweep.
func Chaos() Workload {
	return Workload{
		Name:   "chaos",
		Class:  Mixed,
		Models: "CHAOS irregular mesh relaxation + grid projection",
		Build:  buildChaos,
	}
}

const (
	chaosNodes = 8000
	chaosEdges = 60000
	chaosGrid  = 224
	chaosSteps = 2
)

func buildChaos() *loopir.Program {
	sp := mem.NewSpace()
	pos := mem.NewArray(sp, "pos", 8, chaosNodes, 2)
	force := mem.NewArray(sp, "force", 8, chaosNodes, 2)
	ea := mem.NewArray(sp, "edgeA", 8, chaosEdges, 1)
	eb := mem.NewArray(sp, "edgeB", 8, chaosEdges, 1)
	ew := mem.NewArray(sp, "edgeW", 8, chaosEdges, 1)
	grid := mem.NewArray(sp, "grid", 8, chaosGrid, chaosGrid)
	gnew := mem.NewArray(sp, "gridNew", 8, chaosGrid, chaosGrid)

	// Mesh connectivity: mostly local edges (neighbours in node order)
	// with a long-range fraction, as partitioned meshes exhibit.
	rng := db.NewRNG(0xC4A0_5CA0)
	// Hub-skewed degree distribution: a power-law fraction of nodes
	// (stored at low indices, as a degree-sorted renumbering would place
	// them) participates in most edges — the hot set the bypass
	// mechanism can protect from the cold edge streams.
	for e := 0; e < chaosEdges; e++ {
		a := rng.Skewed(chaosNodes, 2.5)
		var b int
		if rng.Intn(3) == 0 {
			b = rng.Skewed(chaosNodes, 2.5)
		} else {
			b = rng.Intn(chaosNodes)
		}
		ea.SetData(int64(a), e, 0)
		eb.SetData(int64(b), e, 0)
	}

	prog := &loopir.Program{Name: "chaos"}
	for step := 0; step < chaosSteps; step++ {
		s := itoa(step)

		// Irregular phase: edge relaxation through the indirection
		// arrays.
		relax := &loopir.Stmt{
			Name: "edge-relax",
			Refs: []loopir.Ref{
				loopir.OpaqueRef(loopir.ClassIndexed, ea, false),
				loopir.OpaqueRef(loopir.ClassIndexed, eb, false),
				loopir.OpaqueRef(loopir.ClassIndexed, ew, false),
				loopir.OpaqueRef(loopir.ClassIndexed, pos, false),
				loopir.OpaqueRef(loopir.ClassIndexed, force, true),
			},
			Run: func(ctx *loopir.Ctx) {
				e := ctx.V("e")
				a := int(ctx.LoadVal(ea, e, 0))
				b := int(ctx.LoadVal(eb, e, 0))
				ctx.Load(ew, e, 0)
				ctx.Compute(12)
				ctx.Load(pos, a, 0)
				ctx.Load(pos, a, 1)
				ctx.Load(pos, b, 0)
				ctx.Load(pos, b, 1)
				ctx.Load(force, a, 0)
				ctx.Store(force, a, 0)
				ctx.Load(force, b, 0)
				ctx.Store(force, b, 0)
			},
		}
		prog.Body = append(prog.Body,
			loopir.ForLoop("e"+s, chaosEdges, withVar(relax, "e", "e"+s)))

		// Position integration: regular 1-D pass.
		integ := stmt("integrate", 6,
			loopir.AffineRef(pos, true, v("n"), c(0)),
			loopir.AffineRef(pos, true, v("n"), c(1)),
			loopir.AffineRef(force, false, v("n"), c(0)),
			loopir.AffineRef(force, false, v("n"), c(1)),
		)
		prog.Body = append(prog.Body,
			loopir.ForLoop("n"+s, chaosNodes, renameStmtVars(integ, "n", "n"+s)))

		// Regular phase: grid-projection smoothing, written in the
		// column-hostile base order.
		smooth := stmt("grid-smooth", 8,
			loopir.AffineRef(gnew, true, v("gi"), v("gj")),
			loopir.AffineRef(grid, false, v("gi"), v("gj")),
			loopir.AffineRef(grid, false, vp("gi", 1), v("gj")),
			loopir.AffineRef(grid, false, vp("gi", -1), v("gj")),
			loopir.AffineRef(grid, false, v("gi"), vp("gj", 1)),
			loopir.AffineRef(grid, false, v("gi"), vp("gj", -1)),
		)
		prog.Body = append(prog.Body,
			loopir.ForRange("gj"+s, c(1), c(chaosGrid-1),
				loopir.ForRange("gi"+s, c(1), c(chaosGrid-1),
					renameStmtVars(smooth, "gi", "gi"+s, "gj", "gj"+s))))

		// Copy-back, same hostile order.
		copyBack := stmt("grid-copy", 2,
			loopir.AffineRef(grid, true, v("ci"), v("cj")),
			loopir.AffineRef(gnew, false, v("ci"), v("cj")),
		)
		prog.Body = append(prog.Body,
			loopir.ForLoop("cj"+s, chaosGrid,
				loopir.ForLoop("ci"+s, chaosGrid,
					renameStmtVars(copyBack, "ci", "ci"+s, "cj", "cj"+s))))
	}
	return prog
}
