package loopir

import (
	"testing"

	"selcache/internal/mem"
)

// traceSink records the exact access sequence.
type traceSink struct {
	accesses []access
	compute  int
	markers  []bool
}

type access struct {
	addr  mem.Addr
	write bool
}

func (s *traceSink) Access(a mem.Addr, _ uint8, w bool) {
	s.accesses = append(s.accesses, access{a, w})
}
func (s *traceSink) Compute(n int)  { s.compute += n }
func (s *traceSink) Marker(on bool) { s.markers = append(s.markers, on) }

func TestInterpAffineNest(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 3, 4)
	prog := &Program{Name: "t", Body: []Node{
		ForLoop("i", 3,
			ForLoop("j", 4,
				&Stmt{Name: "s", Compute: 1, Refs: []Ref{
					AffineRef(a, true, VarExpr("i"), VarExpr("j")),
				}},
			),
		),
	}}
	var s traceSink
	Run(prog, &s)
	if len(s.accesses) != 12 {
		t.Fatalf("got %d accesses, want 12", len(s.accesses))
	}
	idx := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			want := a.Addr(i, j)
			if s.accesses[idx].addr != want || !s.accesses[idx].write {
				t.Fatalf("access %d = %+v, want write of %#x", idx, s.accesses[idx], want)
			}
			idx++
		}
	}
	// Compute: outer setup 2 + inner setup 2x3 + iteration costs
	// 2x(3+12) + statement compute 1x12.
	if s.compute != 2+3*2+2*3+2*12+12 {
		t.Fatalf("compute = %d", s.compute)
	}
}

func TestInterpBounds(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 10, 1)
	// Triangular-ish: inner bound depends on outer variable.
	prog := &Program{Body: []Node{
		ForLoop("i", 3,
			ForRange("j", ConstExpr(0), VarExpr("i"),
				&Stmt{Refs: []Ref{AffineRef(a, false, VarExpr("j"), ConstExpr(0))}},
			),
		),
	}}
	var s traceSink
	Run(prog, &s)
	if len(s.accesses) != 0+1+2 {
		t.Fatalf("triangular nest: %d accesses, want 3", len(s.accesses))
	}
}

func TestInterpCap(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 16, 1)
	capE := ConstExpr(5)
	prog := &Program{Body: []Node{
		&Loop{Var: "i", Lo: ConstExpr(0), Hi: ConstExpr(16), Cap: &capE, Step: 1,
			Body: []Node{&Stmt{Refs: []Ref{AffineRef(a, false, VarExpr("i"), ConstExpr(0))}}}},
	}}
	var s traceSink
	Run(prog, &s)
	if len(s.accesses) != 5 {
		t.Fatalf("capped loop: %d accesses, want 5", len(s.accesses))
	}
}

func TestInterpStep(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 16, 1)
	prog := &Program{Body: []Node{
		&Loop{Var: "i", Lo: ConstExpr(0), Hi: ConstExpr(16), Step: 4,
			Body: []Node{&Stmt{Refs: []Ref{AffineRef(a, false, VarExpr("i"), ConstExpr(0))}}}},
	}}
	var s traceSink
	Run(prog, &s)
	if len(s.accesses) != 4 {
		t.Fatalf("step-4 loop: %d accesses, want 4", len(s.accesses))
	}
}

func TestInterpHoistedSkipped(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 4, 1)
	st := &Stmt{Refs: []Ref{
		AffineRef(a, false, VarExpr("i"), ConstExpr(0)),
		AffineRef(a, false, VarExpr("i"), ConstExpr(0)),
	}}
	st.Refs[1].Hoisted = true
	prog := &Program{Body: []Node{ForLoop("i", 4, st)}}
	var s traceSink
	Run(prog, &s)
	if len(s.accesses) != 4 {
		t.Fatalf("hoisted ref emitted: %d accesses, want 4", len(s.accesses))
	}
}

func TestInterpMarkersAndOpaque(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 8, 1)
	a.SetData(42, 3, 0)
	var loaded int64
	prog := &Program{Body: []Node{
		&Marker{On: true},
		ForLoop("i", 2, &Stmt{
			Refs: []Ref{OpaqueRef(ClassPointer, a, false)},
			Run: func(ctx *Ctx) {
				loaded = ctx.LoadVal(a, 3, 0)
				ctx.Compute(1)
			},
		}),
		&Marker{On: false},
	}}
	var s traceSink
	Run(prog, &s)
	if loaded != 42 {
		t.Fatalf("LoadVal = %d", loaded)
	}
	if len(s.markers) != 2 || !s.markers[0] || s.markers[1] {
		t.Fatalf("markers %v", s.markers)
	}
	if len(s.accesses) != 2 {
		t.Fatalf("opaque accesses %d, want 2", len(s.accesses))
	}
}

func TestInterpScalars(t *testing.T) {
	sp := mem.NewSpace()
	x := mem.NewScalar(sp, "x", 8)
	prog := &Program{Body: []Node{
		ForLoop("i", 3, &Stmt{Refs: []Ref{
			ScalarRef(x, false),
			ScalarRef(x, true),
		}}),
	}}
	var s traceSink
	Run(prog, &s)
	if len(s.accesses) != 6 {
		t.Fatalf("%d accesses", len(s.accesses))
	}
	for i, acc := range s.accesses {
		if acc.addr != x.Addr {
			t.Fatalf("access %d to %#x, want scalar %#x", i, acc.addr, x.Addr)
		}
		if acc.write != (i%2 == 1) {
			t.Fatalf("access %d write=%v", i, acc.write)
		}
	}
}

func TestValidate(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 4, 4)
	good := &Program{Body: []Node{
		ForLoop("i", 4, &Stmt{Refs: []Ref{AffineRef(a, false, VarExpr("i"), ConstExpr(0))}}),
	}}
	if err := Validate(good); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := &Program{Body: []Node{
		ForLoop("i", 4, &Stmt{Refs: []Ref{OpaqueRef(ClassIndexed, a, false)}}),
	}}
	if err := Validate(bad); err == nil {
		t.Fatal("opaque ref without Run accepted")
	}
	badStep := &Program{Body: []Node{
		&Loop{Var: "i", Lo: ConstExpr(0), Hi: ConstExpr(4), Step: 0},
	}}
	if err := Validate(badStep); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 4, 4)
	orig := &Program{Body: []Node{
		ForLoop("i", 4,
			ForLoop("j", 4,
				&Stmt{Name: "s", Refs: []Ref{AffineRef(a, true, VarExpr("i"), VarExpr("j"))}}),
		),
	}}
	clone := orig.Clone()
	// Mutate the clone's subscripts and loop bounds.
	cl := clone.Body[0].(*Loop)
	cl.Hi = ConstExpr(2)
	cs := cl.Body[0].(*Loop).Body[0].(*Stmt)
	cs.Refs[0].Subs[0] = ConstExpr(0)
	ol := orig.Body[0].(*Loop)
	if ol.Hi.Const != 4 {
		t.Fatal("clone shares loop header")
	}
	os := ol.Body[0].(*Loop).Body[0].(*Stmt)
	if os.Refs[0].Subs[0].IsConst() {
		t.Fatal("clone shares subscript storage")
	}
	// Both still produce traces; counts differ per the mutation.
	var s1, s2 mem.CountingEmitter
	Run(orig, &s1)
	Run(clone, &s2)
	if s1.Accesses() != 16 {
		t.Fatalf("original trace %d accesses", s1.Accesses())
	}
	if s2.Accesses() != 8 {
		t.Fatalf("mutated clone trace %d accesses, want 8", s2.Accesses())
	}
}

func TestWalkAndCollectors(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 4, 4)
	prog := &Program{Body: []Node{
		&Marker{On: true},
		ForLoop("i", 4,
			&Stmt{Name: "s1", Refs: []Ref{AffineRef(a, false, VarExpr("i"), ConstExpr(0))}},
			ForLoop("j", 4,
				&Stmt{Name: "s2", Refs: []Ref{AffineRef(a, true, VarExpr("i"), VarExpr("j"))}}),
		),
	}}
	if got := len(Loops(prog.Body)); got != 2 {
		t.Fatalf("Loops = %d", got)
	}
	if got := len(Stmts(prog.Body)); got != 2 {
		t.Fatalf("Stmts = %d", got)
	}
	if got := len(Refs(prog.Body)); got != 2 {
		t.Fatalf("Refs = %d", got)
	}
}

func TestRefClassification(t *testing.T) {
	for class, analyzable := range map[RefClass]bool{
		ClassScalar:    true,
		ClassAffine:    true,
		ClassNonAffine: false,
		ClassIndexed:   false,
		ClassPointer:   false,
		ClassStruct:    false,
	} {
		if class.Analyzable() != analyzable {
			t.Errorf("%v.Analyzable() = %v", class, class.Analyzable())
		}
	}
}

func TestProgramStringSmoke(t *testing.T) {
	sp := mem.NewSpace()
	a := mem.NewArray(sp, "A", 8, 4, 4)
	prog := &Program{Name: "demo", Body: []Node{
		&Marker{On: true},
		ForLoop("i", 4, &Stmt{Name: "s", Refs: []Ref{AffineRef(a, false, VarExpr("i"), ConstExpr(1))}}),
	}}
	out := prog.String()
	for _, want := range []string{"program demo", "@ON", "for i = 0 .. 4", "A[i][1]"} {
		if !contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

var _ mem.Emitter = (*traceSink)(nil)

func TestUnboundVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbound variable")
		}
	}()
	ctx := &Ctx{}
	ctx.V("missing")
}
