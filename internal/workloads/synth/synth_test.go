package synth

import (
	"bytes"
	"runtime"
	"testing"

	"selcache/internal/loopir"
	"selcache/internal/mem"
)

func TestFamiliesEnumerationStable(t *testing.T) {
	a, b := Families(), Families()
	if len(a) != NumDepthClasses*NumMixClasses*NumFootprintClasses*NumStrideClasses {
		t.Fatalf("got %d families", len(a))
	}
	seen := make(map[string]bool, len(a))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("family order not stable at %d: %v vs %v", i, a[i], b[i])
		}
		name := a[i].Name()
		if seen[name] {
			t.Fatalf("duplicate family %s", name)
		}
		seen[name] = true
		got, ok := FamilyByName(name)
		if !ok || got != a[i] {
			t.Fatalf("FamilyByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := FamilyByName("deep/affine/large"); ok {
		t.Fatal("FamilyByName accepted a 3-part name")
	}
	if _, ok := FamilyByName("deep/affine/large/nope"); ok {
		t.Fatal("FamilyByName accepted an unknown stride class")
	}
}

func TestFamilyConfigsValidate(t *testing.T) {
	for _, f := range Families() {
		if err := f.Config().Validate(); err != nil {
			t.Fatalf("family %s: %v", f.Name(), err)
		}
	}
}

// TestCrossRunDeterminism is the determinism regression gate: the same
// (family, seed) must yield byte-identical canonical IR and fingerprint
// across two fully independent instantiations — fresh Family values, fresh
// Make calls, fresh Build calls — so map-iteration order or hidden global
// RNG state sneaking into generation fails loudly. Every family is
// covered.
func TestCrossRunDeterminism(t *testing.T) {
	seeds := []uint64{0, 1, 7, 0xDEADBEEF}
	for _, fa := range Families() {
		// Re-resolve the family by name: a second, independent path to
		// the same configuration.
		fb, ok := FamilyByName(fa.Name())
		if !ok {
			t.Fatalf("family %s not resolvable by name", fa.Name())
		}
		for _, seed := range seeds {
			ka := MustMake(fa, seed)
			kb := MustMake(fb, seed)
			if ka.Fingerprint != kb.Fingerprint {
				t.Fatalf("%s seed %d: fingerprints differ across instantiations:\n%s\n%s",
					fa.Name(), seed, ka.Fingerprint, kb.Fingerprint)
			}
			ca, cb := Canonical(ka.Build()), Canonical(kb.Build())
			if !bytes.Equal(ca, cb) {
				t.Fatalf("%s seed %d: canonical IR differs across instantiations", fa.Name(), seed)
			}
			// Build must reproduce the fingerprinted program exactly.
			if got := Fingerprint(ka.Build()); got != ka.Fingerprint {
				t.Fatalf("%s seed %d: Build does not reproduce the fingerprint: %s vs %s",
					fa.Name(), seed, got, ka.Fingerprint)
			}
		}
	}
}

// TestKernelClassProperties checks each axis is actually realized by the
// generated programs: mix controls opaque statements, footprint controls
// array sizes, stride controls subscript coefficients, depth controls nest
// depth.
func TestKernelClassProperties(t *testing.T) {
	for _, f := range Families() {
		cfg := f.Config()
		sawOpaque, sawWide := false, false
		for seed := uint64(1); seed <= 5; seed++ {
			k := MustMake(f, seed)
			p := k.Build()
			if err := loopir.Validate(p); err != nil {
				t.Fatalf("%s: invalid program: %v", k.Name(), err)
			}
			var c mem.CountingEmitter
			loopir.Run(p, &c)
			if c.Accesses() == 0 {
				t.Fatalf("%s: kernel emits no accesses", k.Name())
			}
			for _, s := range loopir.Stmts(p.Body) {
				if s.Opaque() {
					sawOpaque = true
				}
			}
			for _, r := range loopir.Refs(p.Body) {
				if r.Array != nil {
					for _, d := range r.Array.Dims {
						if d != f.Class.Footprint.arrayExtent() {
							t.Fatalf("%s: array extent %d, class wants %d", k.Name(), d, f.Class.Footprint.arrayExtent())
						}
					}
				}
				for _, e := range r.Subs {
					for _, term := range e.Terms {
						if term.Coeff > 1 {
							sawWide = true
						}
					}
				}
			}
			for _, top := range p.Body {
				depth, n := 0, top
				for {
					l, ok := n.(*loopir.Loop)
					if !ok {
						break
					}
					depth++
					n = l.Body[0]
				}
				if depth < cfg.MinDepth || depth > cfg.MaxDepth {
					t.Fatalf("%s: nest depth %d outside [%d, %d]", k.Name(), depth, cfg.MinDepth, cfg.MaxDepth)
				}
			}
		}
		if f.Class.Mix == MixAffine && sawOpaque {
			t.Fatalf("%s: affine family generated opaque statements", f.Name())
		}
		if f.Class.Mix == MixIrregular && !sawOpaque {
			t.Fatalf("%s: irregular family generated no opaque statements over 5 seeds", f.Name())
		}
		if f.Class.Stride == StrideSpread && !sawWide {
			t.Fatalf("%s: spread family never widened a coefficient over 5 seeds", f.Name())
		}
	}
}

// TestSeedsDecorrelated: the same numeric seed in different families must
// not share a generator stream, and distinct seeds within a family must
// yield distinct kernels.
func TestSeedsDecorrelated(t *testing.T) {
	fams := Families()
	fps := make(map[string]string)
	for _, f := range fams[:6] {
		for seed := uint64(1); seed <= 4; seed++ {
			k := MustMake(f, seed)
			if prev, dup := fps[k.Fingerprint]; dup {
				t.Fatalf("kernels %s and %s collide", prev, k.Name())
			}
			fps[k.Fingerprint] = k.Name()
		}
	}
}

// TestCanonicalCoversGeometry: two programs that differ only in array
// layout must canonicalize differently (the fingerprint is sensitive to
// everything that changes the event stream).
func TestCanonicalCoversGeometry(t *testing.T) {
	build := func(order []int) *loopir.Program {
		sp := mem.NewSpace()
		a := mem.NewArray(sp, "A", 8, 8, 8)
		a.SetOrder(order)
		return &loopir.Program{Name: "t", Body: []loopir.Node{
			loopir.ForLoop("i", 8, &loopir.Stmt{Name: "s", Compute: 1, Refs: []loopir.Ref{
				loopir.AffineRef(a, false, loopir.VarExpr("i"), loopir.ConstExpr(0)),
			}}),
		}}
	}
	if Fingerprint(build([]int{0, 1})) == Fingerprint(build([]int{1, 0})) {
		t.Fatal("fingerprint ignores array dimension order")
	}
}

// TestLargeFootprintBuildAllocatesLittle guards the corpus compile path
// against materializing array data nobody reads. A large-footprint kernel
// declares four 288×288 arrays of 8-byte elements — 2.6 MB if backed — but
// generated programs only emit addresses, so a build must cost no more than
// its loop tree: under 64 KiB on average over every large family.
func TestLargeFootprintBuildAllocatesLittle(t *testing.T) {
	const seeds = 4
	var kernels []Kernel
	for _, f := range Families() {
		if f.Class.Footprint != FootLarge {
			continue
		}
		if got := f.Config().ArrayExtent; got != 288 {
			t.Fatalf("%s: ArrayExtent %d, want 288", f.Name(), got)
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			kernels = append(kernels, MustMake(f, seed))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range kernels {
		k.Build()
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / uint64(len(kernels))
	if perBuild >= 64<<10 {
		t.Fatalf("a large-footprint build allocates %d bytes on average over %d builds, want < 64 KiB",
			perBuild, len(kernels))
	}
	t.Logf("%d builds, %d bytes each on average", len(kernels), perBuild)
}
