// Package sim assembles the simulated machine: a two-level data-cache
// hierarchy with a TLB, the optional hardware locality-optimization
// mechanisms (MAT/SLDT cache bypassing or victim caches), and a
// deterministic out-of-order-style timing model. A Machine implements
// mem.Emitter, so interpreting a loopir program against it *is* the
// simulation run.
package sim

import (
	"selcache/internal/cache"
	"selcache/internal/mat"
)

// Config is the machine configuration (the paper's Table 1 plus the timing
// parameters of our analytic out-of-order model; see DESIGN.md for the
// SimpleScalar substitution rationale).
type Config struct {
	// Name labels the configuration in reports.
	Name string

	// IssueWidth is the maximum instructions issued per cycle.
	IssueWidth int
	// MemPorts is the number of cache ports (memory instructions issued
	// per cycle).
	MemPorts int

	// L1 and L2 are the data-cache geometries.
	L1 cache.Config
	L2 cache.Config

	// L1Lat, L2Lat and MemLat are access latencies in cycles.
	L1Lat, L2Lat, MemLat int
	// BusBytes is the memory bus width; block transfers cost
	// blockSize/BusBytes cycles.
	BusBytes int

	// MLP is the maximum number of overlapping outstanding misses
	// (derived from the load/store queue capacity).
	MLP int
	// Alpha is the fraction of a miss latency that serializes against
	// the pipeline (dependence stalls); the remainder overlaps with
	// other work. Alpha = 1 models a fully blocking cache.
	Alpha float64

	// TLB is the data-TLB geometry, a cache of page-sized lines (Block is
	// the page size), and TLBLat its miss penalty.
	TLB    cache.Config
	TLBLat int

	// VictimSwapLat is the extra latency of servicing an L1 miss from
	// the victim cache (or the bypass buffer's fill path).
	VictimSwapLat int

	// BufferHitLat is the extra forwarding latency of a bypass-buffer
	// hit relative to an L1 hit, in cycles (serialized fraction applies).
	BufferHitLat float64
	// PrefetchFromL2 lets the spatial larger-fetch ride L2 hits as well
	// as DRAM fetches; when false it only rides DRAM fetches.
	PrefetchFromL2 bool
}

// Base returns the paper's base processor configuration (Table 1):
// 4-wide issue, 32 KB 4-way 32 B-block L1, 512 KB 4-way 128 B-block L2,
// 2/10/100-cycle latencies, 8-byte memory bus, 2 memory ports, and a
// 128-entry 4-way data TLB of 4 KB pages.
func Base() Config {
	return Config{
		Name:       "base",
		IssueWidth: 4,
		MemPorts:   2,
		L1:         cache.Config{Size: 32 << 10, Assoc: 4, Block: 32},
		L2:         cache.Config{Size: 512 << 10, Assoc: 4, Block: 128},
		L1Lat:      2,
		L2Lat:      10,
		MemLat:     100,
		BusBytes:   8,
		MLP:        4,
		Alpha:      0.35,
		TLB:        cache.Config{Size: 128 * 4096, Assoc: 4, Block: 4096},
		TLBLat:     30,

		VictimSwapLat: 1,

		BufferHitLat:   0,
		PrefetchFromL2: true,
	}
}

// WithMemLat returns a copy with main-memory latency lat (Figure 5 uses
// 200 cycles).
func (c Config) WithMemLat(lat int) Config {
	c.MemLat = lat
	c.Name = "higher-mem-lat"
	return c
}

// WithL2Size returns a copy with the L2 capacity set to size bytes
// (Figure 6 uses 1 MB).
func (c Config) WithL2Size(size int) Config {
	c.L2.Size = size
	c.Name = "larger-l2"
	return c
}

// WithL1Size returns a copy with the L1 capacity set to size bytes
// (Figure 7 uses 64 KB).
func (c Config) WithL1Size(size int) Config {
	c.L1.Size = size
	c.Name = "larger-l1"
	return c
}

// WithL2Assoc returns a copy with L2 associativity assoc (Figure 8 uses 8).
func (c Config) WithL2Assoc(assoc int) Config {
	c.L2.Assoc = assoc
	c.Name = "higher-l2-assoc"
	return c
}

// WithL1Assoc returns a copy with L1 associativity assoc (Figure 9 uses 8).
func (c Config) WithL1Assoc(assoc int) Config {
	c.L1.Assoc = assoc
	c.Name = "higher-l1-assoc"
	return c
}

// ExperimentConfigs returns the six machine configurations of the paper's
// evaluation, in Table 3 row order.
func ExperimentConfigs() []Config {
	b := Base()
	return []Config{
		b,
		b.WithMemLat(200),
		b.WithL2Size(1 << 20),
		b.WithL1Size(64 << 10),
		b.WithL2Assoc(8),
		b.WithL1Assoc(8),
	}
}

// ConfigByName returns the experiment configuration (ExperimentConfigs)
// whose Name is name.
func ConfigByName(name string) (Config, bool) {
	for _, c := range ExperimentConfigs() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// HWKind selects the hardware locality-optimization mechanism under test.
type HWKind int

const (
	// HWNone disables the hardware mechanism (base and pure-software
	// runs).
	HWNone HWKind = iota
	// HWBypass is MAT/SLDT selective caching with a bypass buffer
	// (Johnson & Hwu).
	HWBypass
	// HWVictim is the victim-cache alternative (Jouppi): 64 entries at
	// L1, 512 at L2.
	HWVictim
)

// String returns the mechanism name.
func (k HWKind) String() string {
	switch k {
	case HWNone:
		return "none"
	case HWBypass:
		return "bypass"
	case HWVictim:
		return "victim"
	default:
		return "unknown"
	}
}

// MechanismByName is the inverse of String over the selectable mechanisms:
// "bypass" or "victim". HWNone is what Base and PureSoftware runs get, not
// a choice, so "none" is rejected.
func MechanismByName(name string) (HWKind, bool) {
	for _, k := range [...]HWKind{HWBypass, HWVictim} {
		if k.String() == name {
			return k, true
		}
	}
	return HWNone, false
}

// PolicyKind selects the cache replacement policy.
type PolicyKind int

const (
	// PolicyLRU is true-LRU replacement — the default.
	PolicyLRU PolicyKind = iota
	// PolicyEHC is Expected-Hit-Count replacement (arXiv 1808.05024).
	PolicyEHC
)

// String returns the policy name.
func (k PolicyKind) String() string {
	switch k {
	case PolicyLRU:
		return "lru"
	case PolicyEHC:
		return "ehc"
	default:
		return "unknown"
	}
}

// PolicyByName is the inverse of String: "lru" or "ehc".
func PolicyByName(name string) (PolicyKind, bool) {
	for _, k := range [...]PolicyKind{PolicyLRU, PolicyEHC} {
		if k.String() == name {
			return k, true
		}
	}
	return PolicyLRU, false
}

// Options configure one simulation run.
type Options struct {
	// Mechanism selects the hardware scheme.
	Mechanism HWKind
	// InitiallyOn sets the run-time optimization flag at program start.
	// Pure-hardware and combined runs start (and stay) on; selective
	// runs start off and let the inserted markers drive the flag.
	InitiallyOn bool
	// HonorMarkers makes activate/deactivate instructions toggle the
	// flag. When false, markers still cost an instruction slot but do
	// not change the flag (the straightforward combined scheme).
	HonorMarkers bool
	// UpdateWhenOff keeps MAT/SLDT learning while the mechanism is
	// deactivated (an ablation; the paper's semantics — "we simply
	// ignore the mechanism" — freeze the tables, which is the default).
	UpdateWhenOff bool
	// Classify enables conflict/capacity/compulsory miss attribution
	// (costs simulation time and memory; off for timing-focused sweeps).
	Classify bool

	// Policy selects the replacement policy for both cache levels.
	// PolicyLRU (the zero value) is plain true-LRU.
	Policy PolicyKind
	// WayMemo enables the way-memoization tables on both cache levels.
	// Timing and hit/miss statistics are unaffected (a memo hit is a
	// cache hit the tag path would also have found); only the memo
	// counters and the energy model observe it.
	WayMemo bool
	// Energy enables the per-run energy model (internal/energy); the
	// breakdown lands in RunStats.Energy. Off, the field stays zero.
	Energy bool

	// EHCHistoryEntries sizes the EHC hit-count history table (power of
	// two); zero means 256.
	EHCHistoryEntries int
	// L1MemoEntries and L2MemoEntries size the way-memo tables (powers
	// of two); zero means 256 and 1024.
	L1MemoEntries int
	L2MemoEntries int

	// MAT parameterizes the bypass mechanism; zero value means
	// mat.DefaultConfig.
	MAT mat.Config
	// L1VictimEntries and L2VictimEntries size the victim caches; zero
	// means the paper's 64 and 512.
	L1VictimEntries int
	L2VictimEntries int
}

func (o Options) withDefaults() Options {
	if o.MAT.Entries == 0 {
		o.MAT = mat.DefaultConfig()
	}
	if o.MAT.FillSpanWords == 0 {
		o.MAT.FillSpanWords = mat.DefaultConfig().FillSpanWords
	}
	if o.MAT.BlockBytes == 0 {
		o.MAT.BlockBytes = mat.DefaultConfig().BlockBytes
	}
	if o.L1VictimEntries == 0 {
		o.L1VictimEntries = 64
	}
	if o.L2VictimEntries == 0 {
		o.L2VictimEntries = 512
	}
	if o.EHCHistoryEntries == 0 {
		o.EHCHistoryEntries = 256
	}
	if o.L1MemoEntries == 0 {
		o.L1MemoEntries = 256
	}
	if o.L2MemoEntries == 0 {
		o.L2MemoEntries = 1024
	}
	return o
}
