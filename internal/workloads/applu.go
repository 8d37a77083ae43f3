package workloads

import (
	"selcache/internal/db"
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// Applu models the SpecFP95 SSOR solver. The right-hand-side assembly walks
// the structured grid but consults a boundary-condition type table per cell
// (a subscripted-subscript pattern), and the dominant lower/upper
// triangular solves walk the grid in a renumbered wavefront order through
// per-cell Jacobian blocks — accesses the compiler cannot analyze, which is
// why the paper groups applu with the irregular codes despite its
// floating-point nature.
func Applu() Workload {
	return Workload{
		Name:   "applu",
		Class:  Irregular,
		Models: "SpecFP95 applu (SSOR with wavefront-renumbered solves)",
		Build:  buildApplu,
	}
}

const (
	appluN      = 12 // grid edge; cells = N^3
	appluComps  = 5  // solution components per cell
	appluJac    = 12 // Jacobian words read per cell per solve
	appluSweeps = 8
)

func buildApplu() *loopir.Program {
	sp := mem.NewSpace()
	cells := appluN * appluN * appluN
	u := mem.NewArray(sp, "u", 8, cells, appluComps)
	rsd := mem.NewArray(sp, "rsd", 8, cells, appluComps)
	jac := mem.NewArray(sp, "jac", 8, cells, appluJac)
	perm := mem.NewArray(sp, "wavefront", 8, cells, 1)
	bctab := mem.NewArray(sp, "bctype", 8, 64, 1)

	// Wavefront renumbering: cells ordered by anti-diagonal (i+j+k), with
	// deterministic shuffling inside each wavefront — the renumbering
	// that makes the solve order unanalyzable statically.
	rng := db.NewRNG(0xA991_0CEA)
	order := make([]int, 0, cells)
	for wave := 0; wave <= 3*(appluN-1); wave++ {
		var front []int
		for i := 0; i < appluN; i++ {
			for j := 0; j < appluN; j++ {
				k := wave - i - j
				if k >= 0 && k < appluN {
					front = append(front, (i*appluN+j)*appluN+k)
				}
			}
		}
		for x := len(front) - 1; x > 0; x-- {
			y := rng.Intn(x + 1)
			front[x], front[y] = front[y], front[x]
		}
		order = append(order, front...)
	}
	for w, cell := range order {
		perm.SetData(int64(cell), w, 0)
	}

	prog := &loopir.Program{Name: "applu"}

	for sweep := 0; sweep < appluSweeps; sweep++ {
		s := itoa(sweep)

		// rhs: flux/residual assembly over the structured grid. The flux
		// limiter consults the per-cell boundary-condition type table, a
		// subscripted-subscript access that defeats static analysis and
		// puts the whole pass in hardware territory.
		rhs := &loopir.Stmt{
			Name: "rhs",
			Refs: []loopir.Ref{
				loopir.OpaqueRef(loopir.ClassIndexed, u, false),
				loopir.OpaqueRef(loopir.ClassIndexed, rsd, true),
				loopir.OpaqueRef(loopir.ClassIndexed, bctab, false),
			},
			Run: func(ctx *loopir.Ctx) {
				cell := ctx.V("cell")
				ctx.Compute(18)
				for m := 0; m < appluComps; m++ {
					ctx.Load(u, cell, m)
					ctx.Store(rsd, cell, m)
				}
				if nb := cell + 1; nb < cells {
					ctx.Load(u, nb, 0)
				}
				if nb := cell - 1; nb >= 0 {
					ctx.Load(u, nb, 0)
				}
				bc := (cell * 2654435761 >> 8) & 63
				ctx.Load(bctab, bc, 0)
			},
		}
		prog.Body = append(prog.Body,
			loopir.ForLoop("rhs"+s, cells, withVar(rhs, "cell", "rhs"+s)))

		// Lower and upper solves in wavefront order through the
		// renumbering array.
		solve := func(name string, reverse bool) *loopir.Stmt {
			return &loopir.Stmt{
				Name: name,
				Refs: []loopir.Ref{
					loopir.OpaqueRef(loopir.ClassIndexed, perm, false),
					loopir.OpaqueRef(loopir.ClassIndexed, jac, false),
					loopir.OpaqueRef(loopir.ClassIndexed, rsd, true),
					loopir.OpaqueRef(loopir.ClassIndexed, u, true),
				},
				Run: func(ctx *loopir.Ctx) {
					w := ctx.V("w")
					if reverse {
						w = cells - 1 - w
					}
					cell := int(ctx.LoadVal(perm, w, 0))
					ctx.Compute(6)
					for x := 0; x < appluJac; x++ {
						ctx.Load(jac, cell, x)
					}
					ctx.Compute(2 * appluJac)
					for m := 0; m < appluComps; m++ {
						ctx.Load(rsd, cell, m)
					}
					nb := cell - appluN
					if nb < 0 {
						nb += appluN
					}
					for m := 0; m < 3; m++ {
						ctx.Load(u, nb, m)
					}
					for m := 0; m < appluComps; m++ {
						ctx.Store(u, cell, m)
					}
				},
			}
		}
		prog.Body = append(prog.Body,
			loopir.ForLoop("wl"+s, cells, withVar(solve("blts", false), "w", "wl"+s)),
			loopir.ForLoop("wu"+s, cells, withVar(solve("buts", true), "w", "wu"+s)))
	}
	return prog
}

// withVar wraps an opaque statement so its Run body reads induction
// variable alias as name (opaque bodies use generic variable names; the
// enclosing loops are uniquely named per phase).
func withVar(s *loopir.Stmt, name, alias string) *loopir.Stmt {
	inner := s.Run
	out := *s
	out.Run = func(ctx *loopir.Ctx) {
		ctx.Bind(name, ctx.V(alias))
		inner(ctx)
	}
	return &out
}
