package core

import (
	"selcache/internal/loopir"
	"selcache/internal/opt"
	"selcache/internal/regions"
	"selcache/internal/trace"
)

// Stream identifies the equivalence class of a version's event stream.
// The simulated machine never feeds values back into the program, so two
// versions that run the same code emit byte-identical streams no matter
// which machine configuration or hardware mechanism consumes them:
// Base/PureHardware share the untransformed code, PureSoftware/Combined
// share the compiler-optimized code, and Selective alone carries region
// markers. Trace caches key on Stream instead of Version to maximize
// sharing.
type Stream int

const (
	// StreamBase is the untransformed code (Base, PureHardware). Its
	// stream depends on nothing but the workload.
	StreamBase Stream = iota
	// StreamOptimized is the compiler-optimized code (PureSoftware,
	// Combined). Its stream depends on the workload and opt.Options.
	StreamOptimized
	// StreamSelective is the region-marked optimized code (Selective).
	// Its stream additionally depends on regions.Config.
	StreamSelective
)

// NumStreams is the number of stream classes.
const NumStreams = int(StreamSelective) + 1

// String returns the stream-class name.
func (s Stream) String() string {
	switch s {
	case StreamBase:
		return "base"
	case StreamOptimized:
		return "optimized"
	case StreamSelective:
		return "selective"
	default:
		return "unknown"
	}
}

// Stream returns the version's stream class.
func (v Version) Stream() Stream {
	switch v {
	case PureSoftware, Combined:
		return StreamOptimized
	case Selective:
		return StreamSelective
	default:
		return StreamBase
	}
}

// Normalized returns o with the machine-derived compiler defaults filled
// in (zero Opt.BlockBytes/CacheBudget come from the L1 geometry). Trace
// caching keys on the normalized options: two Options values with equal
// normalized forms produce identical event streams per stream class.
func (o Options) Normalized() Options { return o.normalized() }

// RecordTrace prepares the version's program variant exactly like Run and
// captures its event stream instead of simulating it. The returned trace
// replays byte-identically into any mem.Emitter.
func RecordTrace(build Builder, v Version, o Options) (*trace.Trace, regions.Stats, opt.Stats) {
	prog, rst, ost := Prepare(build, v, o)
	rec := trace.NewRecorder()
	loopir.Run(prog, rec)
	return rec.Trace(), rst, ost
}
