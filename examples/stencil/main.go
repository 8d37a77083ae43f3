// Stencil: build a custom loop-nest program against the public IR, watch
// the region detector and the compiler work on it, and simulate the result.
//
// The kernel is a classic 5-point Jacobi sweep written in the
// column-hostile order, followed by an irregular boundary fix-up through an
// index list — a miniature mixed program like the ones the paper targets.
//
//	go run ./examples/stencil
package main

import (
	"fmt"

	"selcache/internal/core"
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

const n = 192

func build() *loopir.Program {
	sp := mem.NewSpace()
	grid := mem.NewPaddedArray(sp, "grid", 8, 1, n, n)
	next := mem.NewPaddedArray(sp, "next", 8, 1, n, n)
	// Irregular boundary list: indices of cells needing fix-up.
	blist := mem.NewArray(sp, "boundary", 8, 4*n, 1)
	for i := 0; i < 4*n; i++ {
		blist.SetData(int64(i*37%(n*n)), i, 0)
	}

	v := loopir.VarExpr
	jacobi := &loopir.Stmt{Name: "jacobi", Compute: 6, Refs: []loopir.Ref{
		loopir.AffineRef(next, true, v("i"), v("j")),
		loopir.AffineRef(grid, false, v("i"), v("j")),
		loopir.AffineRef(grid, false, loopir.AxPlusB(1, "i", 1), v("j")),
		loopir.AffineRef(grid, false, loopir.AxPlusB(1, "i", -1), v("j")),
		loopir.AffineRef(grid, false, v("i"), loopir.AxPlusB(1, "j", 1)),
		loopir.AffineRef(grid, false, v("i"), loopir.AxPlusB(1, "j", -1)),
	}}

	fixup := &loopir.Stmt{
		Name: "boundary-fixup",
		Refs: []loopir.Ref{
			loopir.OpaqueRef(loopir.ClassIndexed, blist, false),
			loopir.OpaqueRef(loopir.ClassIndexed, next, true),
		},
		Run: func(ctx *loopir.Ctx) {
			b := ctx.V("b")
			cell := int(ctx.LoadVal(blist, b, 0))
			ctx.Compute(3)
			ctx.Store(next, cell/n, cell%n)
		},
	}

	prog := &loopir.Program{Name: "stencil"}
	for step := 0; step < 6; step++ {
		s := fmt.Sprintf("%d", step)
		// Hostile order: i (dimension 0) innermost.
		prog.Body = append(prog.Body,
			loopir.ForRange("j"+s, loopir.ConstExpr(1), loopir.ConstExpr(n-1),
				loopir.ForRange("i"+s, loopir.ConstExpr(1), loopir.ConstExpr(n-1),
					renameVars(jacobi, "i", "i"+s, "j", "j"+s))),
			loopir.ForLoop("b"+s, 4*n, withB(fixup, "b"+s)),
		)
	}
	return prog
}

func renameVars(s *loopir.Stmt, pairs ...string) *loopir.Stmt {
	out := s.Clone().(*loopir.Stmt)
	for i := 0; i+1 < len(pairs); i += 2 {
		for ri := range out.Refs {
			for si := range out.Refs[ri].Subs {
				out.Refs[ri].Subs[si] = out.Refs[ri].Subs[si].Subst(pairs[i], loopir.VarExpr(pairs[i+1]))
			}
		}
	}
	return out
}

func withB(s *loopir.Stmt, alias string) *loopir.Stmt {
	inner := s.Run
	out := *s
	out.Run = func(ctx *loopir.Ctx) {
		ctx.Bind("b", ctx.V(alias))
		inner(ctx)
	}
	return &out
}

func main() {
	o := core.DefaultOptions()

	// Show what the compiler front end decides for this program.
	prog, rst, ost := core.Prepare(build, core.Selective, o)
	fmt.Println("selective-compiled program structure:")
	fmt.Print(prog.String())
	fmt.Printf("\nregions: hw=%d sw=%d mixed=%d, markers inserted=%d eliminated=%d\n",
		rst.HardwareLoops, rst.SoftwareLoops, rst.MixedLoops, rst.Inserted, rst.Eliminated)
	fmt.Printf("compiler: interchanged=%d layouts=%d tiled=%d unrolled=%d promoted=%d\n\n",
		ost.Interchanged, ost.LayoutsChanged, ost.Tiled, ost.Unrolled, ost.RefsPromoted)

	base := core.Run(build, core.Base, o)
	for _, v := range []core.Version{core.PureHardware, core.PureSoftware, core.Combined, core.Selective} {
		r := core.Run(build, v, o)
		fmt.Printf("%-14s cycles=%-11d improvement=%6.2f%%\n",
			v, r.Sim.Cycles, core.Improvement(base, r))
	}
}
