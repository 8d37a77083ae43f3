package loopir_test

import (
	"testing"

	"selcache/internal/loopir"
	"selcache/internal/loopir/irgen"
	"selcache/internal/mem"
	"selcache/internal/trace"
)

// record runs prog through the given interpreter and captures the event
// stream.
func record(prog *loopir.Program, interp func(*loopir.Program, mem.Emitter)) *trace.Trace {
	rec := trace.NewRecorder()
	interp(prog, rec)
	return rec.Trace()
}

// requireSameStream asserts the compiled and tree-walking interpreters
// emit byte-identical event streams for two fresh instances of the same
// program.
func requireSameStream(t *testing.T, name string, build func() *loopir.Program) {
	t.Helper()
	fast := record(build(), loopir.Run)
	ref := record(build(), loopir.RunReference)
	if idx, ea, eb, diverged := trace.FirstDivergence(fast, ref); diverged {
		t.Fatalf("%s: interpreters diverge at call %d: compiled=%s tree=%s", name, idx, ea, eb)
	}
}

// TestRunReferenceMatchesCompiled pins the tree-walking reference
// interpreter to the compiled one on a hand-built program exercising every
// node type: nested loops with caps, scalar and affine references, hoisted
// references, markers, zero-compute statements, zero-trip loops and an
// opaque body reading induction variables.
func TestRunReferenceMatchesCompiled(t *testing.T) {
	build := func() *loopir.Program {
		sp := mem.NewSpace()
		a := mem.NewArray(sp, "A", 8, 16, 16)
		b := mem.NewArray(sp, "B", 8, 16, 16)
		s := mem.NewScalar(sp, "s", 8)
		capE := loopir.ConstExpr(12)

		hoisted := loopir.AffineRef(b, false, loopir.VarExpr("i"), loopir.ConstExpr(0))
		hoisted.Hoisted = true

		opaque := &loopir.Stmt{
			Name: "op",
			Refs: []loopir.Ref{loopir.OpaqueRef(loopir.ClassIndexed, a, false)},
			Run: func(ctx *loopir.Ctx) {
				ctx.Compute(3)
				i, j := ctx.V("i"), ctx.V("j")
				ctx.Load(a, (i+j)%16, (i*3+j)%16)
			},
		}

		return &loopir.Program{
			Name: "reference-pin",
			Body: []loopir.Node{
				&loopir.Marker{On: true},
				&loopir.Loop{
					Var: "i", Lo: loopir.ConstExpr(0), Hi: loopir.ConstExpr(16), Cap: &capE, Step: 2,
					Body: []loopir.Node{
						&loopir.Loop{
							Var: "j", Lo: loopir.VarExpr("i"), Hi: loopir.ConstExpr(14), Step: 1,
							Body: []loopir.Node{
								&loopir.Stmt{Name: "s1", Compute: 2, Refs: []loopir.Ref{
									loopir.AffineRef(a, true, loopir.VarExpr("i"), loopir.VarExpr("j")),
									loopir.AffineRef(b, false, loopir.VarExpr("j"), loopir.AxPlusB(1, "i", 1)),
									loopir.ScalarRef(s, false),
									hoisted,
								}},
								opaque,
							},
						},
						// Zero-trip loop: setup cost still charged.
						&loopir.Loop{
							Var: "k", Lo: loopir.ConstExpr(5), Hi: loopir.ConstExpr(5), Step: 1,
							Body: []loopir.Node{
								&loopir.Stmt{Name: "dead", Compute: 1, Refs: []loopir.Ref{
									loopir.AffineRef(a, false, loopir.ConstExpr(0), loopir.VarExpr("k")),
								}},
							},
						},
						// Zero-compute statement: no Compute event emitted.
						&loopir.Stmt{Name: "s2", Compute: 0, Refs: []loopir.Ref{
							loopir.AffineRef(b, true, loopir.VarExpr("i"), loopir.ConstExpr(3)),
						}},
					},
				},
				&loopir.Marker{On: false},
			},
		}
	}
	requireSameStream(t, "reference-pin", build)
}

// TestRunReferenceMatchesCompiledRandom sweeps generated programs across a
// spread of seeds (the fuzzer in internal/oracle goes further; this keeps
// a deterministic floor in the tier-1 suite).
func TestRunReferenceMatchesCompiledRandom(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		requireSameStream(t, "random", func() *loopir.Program {
			return irgen.Program(seed, irgen.Default())
		})
	}
}

// TestRunReferenceRestoresEnv checks the tree walker's variable restore
// semantics: a loop variable shadowing an outer binding is restored, and a
// fresh one reads as unbound (zero) afterwards.
func TestRunReferenceRestoresEnv(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 8)
	var got []int
	probe := &loopir.Stmt{
		Name: "probe",
		Refs: []loopir.Ref{loopir.OpaqueRef(loopir.ClassIndexed, a, false)},
		Run: func(ctx *loopir.Ctx) {
			got = append(got, ctx.Env()["i"])
			ctx.Load(a, 0)
		},
	}
	prog := &loopir.Program{
		Name: "env-restore",
		Body: []loopir.Node{
			&loopir.Loop{Var: "i", Lo: loopir.ConstExpr(3), Hi: loopir.ConstExpr(4), Step: 1,
				Body: []loopir.Node{
					&loopir.Loop{Var: "i", Lo: loopir.ConstExpr(7), Hi: loopir.ConstExpr(8), Step: 1,
						Body: []loopir.Node{probe}},
					probe,
				},
			},
		},
	}
	var c mem.CountingEmitter
	loopir.RunReference(prog, &c)
	if len(got) != 2 || got[0] != 7 || got[1] != 3 {
		t.Fatalf("shadowed binding not restored: got %v, want [7 3]", got)
	}
}
