// Package irgen generates random loopir programs for property-based and
// fuzz-style testing of the compiler passes, and is the substrate the
// parametric workload families (internal/workloads/synth) are layered on:
// random affine nests with stencil-shaped references, occasional opaque
// statements, and random nesting. Generation is deterministic per
// (seed, Config) pair — the same inputs always yield byte-identical
// programs, including array addresses.
package irgen

import (
	"fmt"

	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// rng is a tiny deterministic generator (xorshift64*).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Config bounds the generated programs. The zero value of every Min* field
// and of ArrayExtent/StrideMax selects the historical behavior (see
// withDefaults), so existing callers keep working unchanged.
type Config struct {
	// MaxTopLevel bounds the number of top-level nests.
	MaxTopLevel int
	// MinDepth and MaxDepth bound nest depth: every generated nest is at
	// least MinDepth loops deep and at most MaxDepth. MinDepth zero means 1.
	MinDepth int
	MaxDepth int
	// MinExtent and MaxExtent bound loop trip counts (inclusive).
	// MinExtent zero means 2; extents below 2 are rejected because a
	// one-trip loop collapses every subscript to a constant.
	MinExtent int
	MaxExtent int
	// Arrays is how many arrays the program shares.
	Arrays int
	// ArrayExtent, when non-zero, fixes every array dimension to exactly
	// this extent — the knob the footprint classes are built on. Zero
	// keeps the historical per-array random extents (MaxExtent+3..+10).
	// When set it must exceed MaxExtent so every subscript stays in
	// bounds at unit stride.
	ArrayExtent int
	// OpaquePercent is the chance (0-100) a statement is opaque.
	OpaquePercent int
	// StrideMax, when > 1, lets affine subscripts use coefficients up to
	// StrideMax (clamped so the subscript stays in bounds). Zero or 1
	// keeps unit coefficients.
	StrideMax int
	// Spread scales every variable subscript's coefficient to span the
	// whole array dimension (the maximum in-bounds coefficient), so small
	// trip counts still roam a large footprint. It overrides StrideMax.
	Spread bool
}

// Default returns bounds that keep interpretation fast (a few thousand
// accesses).
func Default() Config {
	return Config{MaxTopLevel: 4, MaxDepth: 3, MaxExtent: 9, Arrays: 4, OpaquePercent: 25}
}

// withDefaults fills the zero values of the newer fields with the
// historical behavior.
func (c Config) withDefaults() Config {
	if c.MinDepth == 0 {
		c.MinDepth = 1
	}
	if c.MinExtent == 0 {
		c.MinExtent = 2
	}
	if c.StrideMax == 0 {
		c.StrideMax = 1
	}
	return c
}

// Validate rejects degenerate configurations: non-positive or inverted
// depth bounds, empty extent ranges, no arrays to reference, out-of-range
// percentages, or arrays too small for the subscripts the generator would
// build. It is called by Generate; Program panics on the same conditions.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.MaxTopLevel < 1:
		return fmt.Errorf("irgen: MaxTopLevel %d < 1", c.MaxTopLevel)
	case c.MinDepth < 1:
		return fmt.Errorf("irgen: MinDepth %d < 1", c.MinDepth)
	case c.MaxDepth < c.MinDepth:
		return fmt.Errorf("irgen: depth range [%d, %d] is empty", c.MinDepth, c.MaxDepth)
	case c.MinExtent < 2:
		return fmt.Errorf("irgen: MinExtent %d < 2", c.MinExtent)
	case c.MaxExtent < c.MinExtent:
		return fmt.Errorf("irgen: extent range [%d, %d] is empty", c.MinExtent, c.MaxExtent)
	case c.Arrays < 1:
		return fmt.Errorf("irgen: Arrays %d < 1", c.Arrays)
	case c.OpaquePercent < 0 || c.OpaquePercent > 100:
		return fmt.Errorf("irgen: OpaquePercent %d outside [0, 100]", c.OpaquePercent)
	case c.StrideMax < 1:
		return fmt.Errorf("irgen: StrideMax %d < 1", c.StrideMax)
	case c.ArrayExtent != 0 && c.ArrayExtent <= c.MaxExtent:
		return fmt.Errorf("irgen: ArrayExtent %d must exceed MaxExtent %d (subscripts would leave the array)", c.ArrayExtent, c.MaxExtent)
	}
	return nil
}

// Generate builds a random valid program, or reports why the configuration
// is degenerate. The same (seed, cfg) always yields the same program
// (including array addresses). Seed zero is remapped to 1 (the xorshift
// state must be non-zero).
func Generate(seed uint64, cfg Config) (*loopir.Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if seed == 0 {
		seed = 1
	}
	r := &rng{s: seed}
	sp := mem.NewSpace()
	arrays := make([]*mem.Array, cfg.Arrays)
	for i := range arrays {
		d0, d1 := cfg.ArrayExtent, cfg.ArrayExtent
		if cfg.ArrayExtent == 0 {
			// Historical behavior: extents comfortably above the maximum
			// loop trip count plus offset, randomized per array.
			d0 = cfg.MaxExtent + 3 + r.intn(8)
			d1 = cfg.MaxExtent + 3 + r.intn(8)
		}
		arrays[i] = mem.NewArray(sp, fmt.Sprintf("A%d", i), 8, d0, d1)
	}
	g := &gen{r: r, cfg: cfg, arrays: arrays}
	prog := &loopir.Program{Name: fmt.Sprintf("random-%d", seed)}
	n := 1 + r.intn(cfg.MaxTopLevel)
	for i := 0; i < n; i++ {
		prog.Body = append(prog.Body, g.nest(0, nil))
	}
	if err := loopir.Validate(prog); err != nil {
		return nil, fmt.Errorf("irgen: generated invalid program: %v", err)
	}
	return prog, nil
}

// Program generates a random valid program, panicking on a degenerate
// configuration (the historical entry point; new callers that handle
// untrusted configurations should use Generate).
func Program(seed uint64, cfg Config) *loopir.Program {
	p, err := Generate(seed, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// scopeVar is one in-scope induction variable and its trip count.
type scopeVar struct {
	name   string
	extent int
}

type gen struct {
	r      *rng
	cfg    Config
	arrays []*mem.Array
	nextID int
}

func (g *gen) freshVar() string {
	g.nextID++
	return fmt.Sprintf("v%d", g.nextID)
}

func (g *gen) extent() int {
	return g.cfg.MinExtent + g.r.intn(g.cfg.MaxExtent-g.cfg.MinExtent+1)
}

// nest builds a random loop nest. Recursion continues until the nest is at
// least MinDepth deep, then flips a weighted coin up to MaxDepth.
func (g *gen) nest(depth int, vars []scopeVar) loopir.Node {
	v := g.freshVar()
	extent := g.extent()
	loop := &loopir.Loop{
		Var:  v,
		Lo:   loopir.ConstExpr(0),
		Hi:   loopir.ConstExpr(extent),
		Step: 1,
	}
	vars = append(vars, scopeVar{name: v, extent: extent})
	deeper := depth+1 < g.cfg.MaxDepth &&
		(depth+1 < g.cfg.MinDepth || g.r.intn(100) < 60)
	if deeper {
		loop.Body = []loopir.Node{g.nest(depth+1, vars)}
	} else {
		loop.Body = []loopir.Node{g.stmt(vars)}
	}
	return loop
}

// stmt builds a statement whose affine references use the loop variables in
// scope, bounded by the arrays' extents so interpretation stays in bounds.
func (g *gen) stmt(vars []scopeVar) *loopir.Stmt {
	if g.r.intn(100) < g.cfg.OpaquePercent {
		a := g.arrays[g.r.intn(len(g.arrays))]
		stride := 1 + g.r.intn(7)
		write := g.r.intn(2) == 0
		names := make([]string, len(vars))
		for i, sv := range vars {
			names[i] = sv.name
		}
		return &loopir.Stmt{
			// The name encodes the closure's parameters so canonical
			// renderings of the IR (fingerprinting, golden diffs) capture
			// opaque behavior, not just its presence.
			Name: fmt.Sprintf("opaque[%s*%d]", a.Name, stride),
			Refs: []loopir.Ref{loopir.OpaqueRef(loopir.ClassIndexed, a, write)},
			Run: func(ctx *loopir.Ctx) {
				ctx.Compute(2)
				sum := 0
				for _, v := range names {
					sum += ctx.V(v)
				}
				ctx.Load(a, (sum*stride)%a.Dims[0], sum%a.Dims[1])
			},
		}
	}
	nrefs := 1 + g.r.intn(4)
	refs := make([]loopir.Ref, 0, nrefs)
	for i := 0; i < nrefs; i++ {
		a := g.arrays[g.r.intn(len(g.arrays))]
		refs = append(refs, loopir.AffineRef(a, i == 0 && g.r.intn(2) == 0,
			g.sub(vars, a.Dims[0]), g.sub(vars, a.Dims[1])))
	}
	return &loopir.Stmt{Name: "s", Refs: refs, Compute: 1 + g.r.intn(4)}
}

// sub builds a bounded affine subscript: a constant, or coeff*var + offset
// with the coefficient and offset clamped so the subscript stays inside
// [0, dim) for every value the variable takes. The coefficient policy is
// the stride knob: unit by default, random in [1, StrideMax] when strided,
// and the maximum in-bounds coefficient when Spread is set.
func (g *gen) sub(vars []scopeVar, dim int) loopir.Expr {
	if g.r.intn(100) < 25 {
		return loopir.ConstExpr(g.r.intn(dim))
	}
	v := vars[g.r.intn(len(vars))]
	maxIdx := v.extent - 1 // extent >= 2, so maxIdx >= 1
	cmax := (dim - 1) / maxIdx
	coeff := 1
	switch {
	case g.cfg.Spread:
		coeff = cmax
	case g.cfg.StrideMax > 1:
		coeff = 1 + g.r.intn(g.cfg.StrideMax)
		if coeff > cmax {
			coeff = cmax
		}
	}
	off := 0
	if head := dim - 1 - coeff*maxIdx; head > 0 && g.r.intn(100) < 40 {
		if head > 2 {
			head = 2
		}
		off = g.r.intn(head + 1)
	}
	return loopir.AxPlusB(coeff, v.name, off)
}
