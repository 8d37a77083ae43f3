package experiments

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"selcache/internal/core"
	"selcache/internal/flight"
	"selcache/internal/opt"
	"selcache/internal/regions"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

// traceKey identifies one recorded event stream. Streams are keyed per
// core.Stream, not per version: Base/PureHardware and PureSoftware/Combined
// pairs replay the same capture, and nothing about the machine
// configuration or hardware mechanism enters the key because the stream
// does not depend on them. Opt is zeroed for base streams (untransformed
// code) and Regions is zeroed for everything but selective streams, so the
// key never over-splits the cache.
type traceKey struct {
	bench   string
	stream  core.Stream
	opt     opt.Options
	regions regions.Config
}

func keyFor(w workloads.Workload, v core.Version, o core.Options) traceKey {
	o = o.Normalized()
	k := traceKey{bench: w.Name, stream: v.Stream()}
	switch k.stream {
	case core.StreamOptimized:
		k.opt = o.Opt
	case core.StreamSelective:
		k.opt = o.Opt
		k.regions = o.Regions
	}
	return k
}

// filename derives a stable on-disk name for a key: benchmark and stream
// for the human, an FNV-1a hash of the full key for collision safety.
func (k traceKey) filename() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%#v|%#v", k.bench, k.stream, k.opt, k.regions)
	return fmt.Sprintf("%s-%s-%016x.sctrace", k.bench, k.stream, h.Sum64())
}

// TraceCacheStats reports cache effectiveness for throughput summaries
// and the selcached /metrics endpoint.
type TraceCacheStats struct {
	// Hits counts Get calls served by an already-present stream, Misses
	// those that had to record (or load) one.
	Hits, Misses uint64
	// Waits is the subset of Hits that arrived while the stream was
	// still being recorded by another goroutine and blocked on that
	// in-flight recording instead of starting their own.
	Waits uint64
	// DiskLoads counts misses satisfied from the persistence directory
	// instead of a fresh recording; DiskErrors counts failed saves/loads
	// of valid work (corrupt or unreadable files fall back to recording).
	DiskLoads, DiskErrors uint64
	// Streams is the number of distinct streams held and Bytes their
	// total encoded payload size.
	Streams uint64
	Bytes   uint64
}

// TraceCache is a concurrency-safe store of recorded event streams keyed
// by (benchmark, stream class, compiler configuration). Every experiment
// entry point funnels its per-version runs through one, so each distinct
// program variant is interpreted once and replayed everywhere else. The
// store is a flight.Memo, so the dedup holds across goroutines too: when
// several workers — sweep cells on the internal/parallel pool, or
// concurrent selcached requests sharing a stream class — need the same
// stream at once, exactly one records it and the rest block on that
// in-flight recording rather than repeating it.
//
// Streams are retained for the cache's lifetime: a full Table 3 keeps all
// 39 streams, 705 MB as packed words (310.7 MB encoded, the Bytes figure).
// With a persistence directory, streams are additionally written as
// .sctrace files and reused by later runs; the directory is trusted, so
// delete it after changing workloads, the optimizer, or region detection
// (the golden-trace tests catch unintended stream drift).
type TraceCache struct {
	dir string

	memo flight.Memo[traceKey, *trace.Trace]

	hits, misses, waits, diskLoads, diskErrors, bytes atomic.Uint64
}

// NewTraceCache returns an empty cache. dir, when non-empty, enables
// .sctrace persistence (the directory is created on first use).
func NewTraceCache(dir string) *TraceCache {
	return &TraceCache{dir: dir}
}

// Get returns the event stream version v of workload w emits under o,
// recording (or loading) it on first use. Concurrent calls for the same
// stream collapse to one recording.
func (tc *TraceCache) Get(w workloads.Workload, v core.Version, o core.Options) *trace.Trace {
	key := keyFor(w, v, o)
	t, outcome := tc.memo.Get(key, func() *trace.Trace {
		tr := tc.fill(key, w, o)
		tc.bytes.Add(uint64(tr.EncodedSize()))
		return tr
	})
	switch outcome {
	case flight.Computed:
		tc.misses.Add(1)
	case flight.Waited:
		tc.hits.Add(1)
		tc.waits.Add(1)
	default:
		tc.hits.Add(1)
	}
	return t
}

// canonical maps a stream class to the version whose Prepare recipe
// produces it.
func canonical(s core.Stream) core.Version {
	switch s {
	case core.StreamOptimized:
		return core.PureSoftware
	case core.StreamSelective:
		return core.Selective
	default:
		return core.Base
	}
}

func (tc *TraceCache) fill(key traceKey, w workloads.Workload, o core.Options) *trace.Trace {
	var path string
	if tc.dir != "" {
		path = filepath.Join(tc.dir, key.filename())
		if t, err := trace.ReadFile(path); err == nil {
			tc.diskLoads.Add(1)
			return t
		} else if !errors.Is(err, fs.ErrNotExist) {
			tc.diskErrors.Add(1)
		}
	}
	t, _, _ := core.RecordTrace(w.Build, canonical(key.stream), o)
	if path != "" {
		if err := os.MkdirAll(tc.dir, 0o755); err != nil {
			tc.diskErrors.Add(1)
		} else if err := t.WriteFile(path); err != nil {
			tc.diskErrors.Add(1)
		}
	}
	return t
}

// Stats snapshots the cache counters.
func (tc *TraceCache) Stats() TraceCacheStats {
	return TraceCacheStats{
		Hits:       tc.hits.Load(),
		Misses:     tc.misses.Load(),
		Waits:      tc.waits.Load(),
		DiskLoads:  tc.diskLoads.Load(),
		DiskErrors: tc.diskErrors.Load(),
		Streams:    uint64(tc.memo.Len()),
		Bytes:      tc.bytes.Load(),
	}
}

// orNew returns tc, or a fresh private cache when tc is nil — the
// uncached-entry-point path still records each distinct stream only once
// within its own sweep.
func (tc *TraceCache) orNew() *TraceCache {
	if tc != nil {
		return tc
	}
	return NewTraceCache("")
}
