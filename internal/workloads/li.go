package workloads

import (
	"selcache/internal/db"
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// Li models the SpecInt95 xlisp interpreter: a cons-cell heap with car/cdr
// pointer arrays, a small ultra-hot environment association list searched
// on nearly every evaluation step, medium-hot program lists, a large cold
// data region grown by consing, and periodic garbage-collection mark phases
// that sweep the whole reachable heap. The eval/GC alternation is the
// paper's phase-change story in its purest form: GC retrains the hardware
// tables on cold data right before evaluation resumes.
func Li() Workload {
	return Workload{
		Name:   "li",
		Class:  Irregular,
		Models: "SpecInt95 li (xlisp cons heap, eval + GC)",
		Build:  buildLi,
	}
}

const (
	liCells    = 100000
	liEnvCells = 400
	liProgs    = 60
	liProgLen  = 48
	liEvalIter = 12000
	liGCs      = 2
)

func buildLi() *loopir.Program {
	sp := mem.NewSpace()
	car := mem.NewArray(sp, "car", 8, liCells, 1)
	cdr := mem.NewArray(sp, "cdr", 8, liCells, 1)
	marks := mem.NewArray(sp, "mark", 8, liCells, 1)

	rng := db.NewRNG(0x11C1_5B00)

	// Heap layout: cells [0, liEnvCells) form the environment alist;
	// the next block holds program lists; the rest is data, consed in a
	// scattered order to model allocator churn.
	next := 0
	alloc := func() int {
		cell := next
		next++
		return cell
	}
	// Environment: a chain through the env region.
	for i := 0; i < liEnvCells; i++ {
		cell := alloc()
		car.SetData(int64(i), cell, 0) // symbol id
		cdr.SetData(int64(cell+1), cell, 0)
	}
	cdr.SetData(0, liEnvCells-1, 0)
	// Programs: lists of cells, each cdr-linked.
	progHeads := make([]int, liProgs)
	for p := 0; p < liProgs; p++ {
		head := alloc()
		progHeads[p] = head
		cur := head
		for l := 1; l < liProgLen; l++ {
			nc := alloc()
			car.SetData(int64(rng.Intn(liEnvCells)), cur, 0) // refers to a symbol
			cdr.SetData(int64(nc), cur, 0)
			cur = nc
		}
		cdr.SetData(-1, cur, 0)
	}
	dataStart := next

	prog := &loopir.Program{Name: "li"}
	heapRefs := []loopir.Ref{
		loopir.OpaqueRef(loopir.ClassPointer, car, true),
		loopir.OpaqueRef(loopir.ClassPointer, cdr, true),
		loopir.OpaqueRef(loopir.ClassStruct, car, false),
	}

	evalIters := liEvalIter / (liGCs + 1)
	for phase := 0; phase <= liGCs; phase++ {
		s := itoa(phase)

		eval := &loopir.Stmt{
			Name: "eval",
			Refs: heapRefs,
			Run: func(ctx *loopir.Ctx) {
				ctx.Compute(10)
				// Walk a random program list, doing an env lookup per
				// element and consing a result cell every few steps.
				head := progHeads[rng.Intn(liProgs)]
				cur := head
				for cur >= 0 {
					sym := ctx.LoadVal(car, cur, 0)
					// Environment search: walk the alist until the
					// symbol matches (bounded walk; hot cells).
					env := int(sym) % liEnvCells
					steps := 1 + int(sym)%6
					for e := 0; e < steps; e++ {
						ctx.Compute(2)
						ctx.Load(car, env, 0)
						envNext := ctx.LoadVal(cdr, env, 0)
						env = int(envNext)
						if env <= 0 || env >= liEnvCells {
							env = 0
						}
					}
					// Cons a data cell once in a while.
					if rng.Intn(4) == 0 && next < liCells {
						cell := alloc()
						ctx.StoreVal(car, sym, cell, 0)
						ctx.StoreVal(cdr, int64(rng.Intn(next)), cell, 0)
					}
					cur = int(ctx.LoadVal(cdr, cur, 0))
					ctx.Compute(4)
				}
			},
		}
		prog.Body = append(prog.Body, loopir.ForLoop("ev"+s, evalIters, eval))

		if phase == liGCs {
			break
		}
		// GC mark phase: sweep every allocated cell, chase one level of
		// its cdr pointer, set the mark word — a cold pass over the
		// whole heap.
		gc := &loopir.Stmt{
			Name: "gc-mark",
			Refs: []loopir.Ref{
				loopir.OpaqueRef(loopir.ClassPointer, car, false),
				loopir.OpaqueRef(loopir.ClassPointer, cdr, false),
				loopir.OpaqueRef(loopir.ClassIndexed, marks, true),
			},
			Run: func(ctx *loopir.Ctx) {
				limit := next
				for cell := 0; cell < limit; cell++ {
					ctx.Compute(3)
					ctx.Load(car, cell, 0)
					child := ctx.LoadVal(cdr, cell, 0)
					ctx.StoreVal(marks, 1, cell, 0)
					if c := int(child); c > 0 && c < limit {
						ctx.Store(marks, c, 0)
					}
				}
				_ = dataStart
			},
		}
		prog.Body = append(prog.Body, loopir.ForLoop("gc"+s, 1, gc))
	}
	return prog
}
