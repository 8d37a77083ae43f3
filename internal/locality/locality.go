// Package locality is the symbolic locality estimator: a static
// reuse-distance and miss-ratio predictor over loopir programs, following
// the fully-symbolic analysis style of arXiv 2603.10196. It answers in
// microseconds what the simulator answers in seconds, at the price of a
// model: affine subscripts are handled exactly, mostly-affine programs
// (opaque statements that still declare which array they touch) are bounded
// by declared footprints, and genuinely irregular programs (pointer or
// struct chasing, opaque references with no declared target) are declined
// with a reason rather than guessed at.
//
// The model is a recursive footprint analysis. References are grouped by
// (array, subscript shape); each loop level computes the byte footprint of
// one body iteration — the symbolic reuse distance carried by that loop —
// and compares it against each cache level's capacity. If the distance fits,
// the loop's misses collapse to the distinct lines it touches (temporal
// reuse is captured); if it overflows, every iteration re-misses its body
// (the classic fit-or-multiply recurrence of static reuse-distance
// analysis). Spatial reuse falls out of line-granularity footprints. The
// same recurrence runs per level against the L1, L2 and TLB geometries, so
// one pass predicts all three miss ratios. See docs/ESTIMATOR.md.
package locality

import (
	"fmt"

	"selcache/internal/loopir"
	"selcache/internal/sim"
)

// Verdict classifies how much the estimator could promise about a program.
type Verdict string

const (
	// VerdictExact: every reference is scalar or affine; access and
	// instruction counts are exact (for rectangular nests) and miss
	// predictions are model-exact.
	VerdictExact Verdict = "exact"
	// VerdictBounded: some references are opaque but declare their target
	// array, so misses are bounded by declared footprints; Lo/Hi bracket
	// the prediction.
	VerdictBounded Verdict = "bounded"
	// VerdictDeclined: the program chases pointers or touches memory the
	// IR does not declare; the estimator refuses to guess. Reason says
	// why and the numeric fields are zero.
	VerdictDeclined Verdict = "declined"
)

// Geometry is the machine shape the estimator predicts against — the cache
// and TLB parameters of a sim.Config, without any of the simulator's
// stateful mechanisms.
type Geometry struct {
	IssueWidth int `json:"issue_width"`

	L1Block int `json:"l1_block"`
	L1Size  int `json:"l1_size"`
	L1Assoc int `json:"l1_assoc"`
	L2Block int `json:"l2_block"`
	L2Size  int `json:"l2_size"`
	L2Assoc int `json:"l2_assoc"`
	// The TLB is modelled as a cache of TLBEntries lines of PageSize bytes.
	PageSize   int `json:"page_size"`
	TLBEntries int `json:"tlb_entries"`
	TLBAssoc   int `json:"tlb_assoc"`

	L1Lat  int `json:"l1_lat"`
	L2Lat  int `json:"l2_lat"`
	MemLat int `json:"mem_lat"`
	TLBLat int `json:"tlb_lat"`
}

// FromConfig extracts the estimator-relevant geometry from a machine
// configuration (core.SimOptions machines all derive from sim.Config).
func FromConfig(c sim.Config) Geometry {
	return Geometry{
		IssueWidth: c.IssueWidth,
		L1Block:    c.L1.Block,
		L1Size:     c.L1.Size,
		L1Assoc:    c.L1.Assoc,
		L2Block:    c.L2.Block,
		L2Size:     c.L2.Size,
		L2Assoc:    c.L2.Assoc,
		PageSize:   c.TLB.Block,
		TLBEntries: c.TLB.Lines(),
		TLBAssoc:   c.TLB.Assoc,
		L1Lat:      c.L1Lat,
		L2Lat:      c.L2Lat,
		MemLat:     c.MemLat,
		TLBLat:     c.TLBLat,
	}
}

// Level is the prediction for one cache level (or the TLB).
type Level struct {
	Name string `json:"name"`
	// Accesses is the predicted access count presented to this level
	// (for L2 that is the predicted L1 miss count).
	Accesses float64 `json:"accesses"`
	// Misses is the point prediction; MissesLo/MissesHi bracket it
	// (they coincide for exact verdicts).
	Misses   float64 `json:"misses"`
	MissesLo float64 `json:"misses_lo"`
	MissesHi float64 `json:"misses_hi"`
	// MissPct is 100*Misses/Accesses (0 when Accesses is 0).
	MissPct   float64 `json:"miss_pct"`
	MissPctLo float64 `json:"miss_pct_lo"`
	MissPctHi float64 `json:"miss_pct_hi"`
}

// LoopReport is the symbolic reuse summary of one loop: the reuse distance
// its body carries (the byte footprint of one iteration) and whether each
// cache level captures it.
type LoopReport struct {
	Var   string `json:"var"`
	Depth int    `json:"depth"`
	// Trip is the (possibly averaged) predicted trip count.
	Trip float64 `json:"trip"`
	// DistBytes is the symbolic reuse distance carried by this loop: the
	// L1-line-granular byte footprint of one body iteration.
	DistBytes float64 `json:"dist_bytes"`
	// CapturedL1/L2/TLB report whether the distance fits each level, i.e.
	// whether the loop-carried reuse hits there.
	CapturedL1  bool `json:"captured_l1"`
	CapturedL2  bool `json:"captured_l2"`
	CapturedTLB bool `json:"captured_tlb"`
	// Detail renders the per-reference-group line footprints, e.g.
	// "A:320+B:80 L1-lines".
	Detail string `json:"detail,omitempty"`
}

// ClassAccesses is the predicted access count attributed to one reference
// class (scalar, affine, indexed, ...).
type ClassAccesses struct {
	Class    string  `json:"class"`
	Accesses float64 `json:"accesses"`
}

// Estimate is the full static prediction for one program.
type Estimate struct {
	Verdict Verdict `json:"verdict"`
	// Reason explains bounded and declined verdicts.
	Reason string `json:"reason,omitempty"`

	// RefsAnalyzable/RefsBounded/RefsDeclined count static references by
	// disposition (scalar+affine / opaque-with-array / undeclared).
	RefsAnalyzable int `json:"refs_analyzable"`
	RefsBounded    int `json:"refs_bounded"`
	RefsDeclined   int `json:"refs_declined"`

	// Accesses and Instructions are predicted event totals. For exact
	// verdicts on rectangular nests these equal the interpreter's counts.
	Accesses     float64 `json:"accesses"`
	Instructions float64 `json:"instructions"`

	L1  Level `json:"l1"`
	L2  Level `json:"l2"`
	TLB Level `json:"tlb"`

	// Cost is the analytic ranking cost (not cycles): instruction issue
	// plus latency-weighted predicted misses. Lower is better; it exists
	// to order program variants and sweep cells, not to predict time.
	Cost float64 `json:"cost"`

	// ByClass splits predicted accesses by reference class.
	ByClass []ClassAccesses `json:"by_class,omitempty"`
	// Loops reports per-loop symbolic reuse distances, pre-order.
	Loops []LoopReport `json:"loops,omitempty"`
}

// Analyze statically estimates the program's cache behavior under g. It
// never simulates: cost is proportional to the static size of the program,
// not its trip counts.
func Analyze(p *loopir.Program, g Geometry) Estimate {
	a := newAnalyzer(g)
	return a.analyze(p)
}

// String summarizes the estimate for diagnostics.
func (e Estimate) String() string {
	if e.Verdict == VerdictDeclined {
		return fmt.Sprintf("declined: %s", e.Reason)
	}
	return fmt.Sprintf("%s: %.0f accesses, L1 %.2f%%, L2 %.2f%%, TLB %.2f%%, cost %.0f",
		e.Verdict, e.Accesses, e.L1.MissPct, e.L2.MissPct, e.TLB.MissPct, e.Cost)
}
