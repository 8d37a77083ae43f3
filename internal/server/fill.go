// fill.go is selcached's miss path. A fill is the work of producing one
// missing cell's result: a peer fetch, a remote execution, or an admitted
// local run. Each in-flight fill is one record in one map, shared by every
// request that asks for the cell while it is in flight; admission is the
// only bound on how many run at once.
package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"selcache/internal/core"
	"selcache/internal/workloads"
)

// errDeadline marks a request that expired before its result was ready.
var errDeadline = errors.New("deadline exceeded waiting for simulation")

// errAbandoned marks a fill dropped before execution: every requester had
// timed out and the background-fill bound left no credit to run it anyway.
var errAbandoned = errors.New("fill abandoned: no live waiter and background-fill bound reached")

// execOutcome is what one fill hands every requester: the result, the tier
// that produced it, or the reason it was not produced. A shed or abandoned
// fill answers every deduplicated waiter with its error.
type execOutcome struct {
	sr   StoredResult
	tier string
	err  error
}

// fill is one in-flight cell. The first requester creates it and starts
// its one leader goroutine (lead); every requester, the first included,
// waits on done or its own deadline and then drops its waiter.
type fill struct {
	done chan struct{} // closed once out is final
	out  execOutcome

	// Guarded by Server.fillMu.
	waiters    int  // requests still waiting on done
	running    bool // holding an admission slot
	background bool // running with no waiter, on a background credit
	// cancelQueue aborts the leader's admission wait. The last waiter
	// leaving fires it when no background credit is free, so an abandoned
	// fill stops occupying backlog the moment it stops being worth anything.
	cancelQueue context.CancelFunc
}

// claim is one request's hold on a cell: the result itself when a cache
// tier had it, or the in-flight fill to wait on.
type claim struct {
	sr     StoredResult
	tier   string
	f      *fill // nil once served from cache or awaited
	joined bool  // f was already in flight when claimed
}

// claim starts spec down the cache hierarchy: in-memory LRU and -cachedir
// disk answer at once; on a miss it joins the cell's in-flight fill or
// starts one, whose leader tries the peer tier (another node's cache),
// the remote hook (cluster execution) and finally an admitted local run.
// noRemote pins the cell to the local node — set for requests a
// coordinator already forwarded here, so two misconfigured nodes pointed
// at each other cannot bounce a cell forever (it also skips the peer tier:
// a forwarded cell's receiver IS the ring owner). Every claim holding a
// fill must be passed to await or drop.
func (s *Server) claim(spec Spec, o core.Options, class Class, noRemote bool) claim {
	key := spec.Key()
	if sr, tier, ok := s.results.get(key); ok {
		s.metrics.tierServed(tier)
		return claim{sr: sr, tier: tier}
	}
	s.fillMu.Lock()
	defer s.fillMu.Unlock()
	f, joined := s.fills[key]
	if !joined {
		f = &fill{done: make(chan struct{})}
		s.fills[key] = f
		s.bg.Add(1)
		go s.lead(key, f, spec, o, class, noRemote)
	}
	f.waiters++
	return claim{f: f, joined: joined}
}

// await returns the claimed cell's result once its fill finishes, or
// errDeadline when ctx is done first, and drops the claim's waiter either
// way. The tier return names which tier served the request for the
// X-Selcache headers and /metrics counters.
func (s *Server) await(ctx context.Context, c *claim) (StoredResult, string, error) {
	f := c.f
	if f == nil {
		return c.sr, c.tier, nil
	}
	c.f = nil
	select {
	case <-f.done:
	case <-ctx.Done():
		s.leave(f)
		return StoredResult{}, "", errDeadline
	}
	s.leave(f)
	if f.out.err != nil {
		return StoredResult{}, "", f.out.err
	}
	if c.joined {
		s.metrics.runDeduped()
	}
	s.metrics.tierServed(f.out.tier)
	return f.out.sr, f.out.tier, nil
}

// drop releases a claim that will not be awaited.
func (s *Server) drop(c *claim) {
	if c.f != nil {
		s.leave(c.f)
		c.f = nil
	}
}

// leave drops one waiter. The last waiter leaving a running fill turns it
// into a background fill, which finishes and fills the cache (that tail is
// bounded by the admission slots); the last one leaving a fill still queued
// for admission with no background credit free cancels the queue wait.
func (s *Server) leave(f *fill) {
	s.fillMu.Lock()
	defer s.fillMu.Unlock()
	f.waiters--
	switch {
	case f.waiters > 0:
	case f.running:
		if !f.background {
			f.background = true
			s.bgNow++
		}
	case f.cancelQueue != nil && s.bgNow >= s.bgCap:
		f.cancelQueue()
	}
}

// lead produces f's outcome, retires the record and wakes every waiter.
// It runs on the fill's own goroutine, which no handler recovers: a panic
// in runRow ends the process.
func (s *Server) lead(key string, f *fill, spec Spec, o core.Options, class Class, noRemote bool) {
	defer s.bg.Done()
	out := s.produce(key, f, spec, o, class, noRemote)
	s.fillMu.Lock()
	delete(s.fills, key)
	held := f.running
	f.running = false
	if f.background {
		s.bgNow--
		s.bgCompleted++
	}
	s.fillMu.Unlock()
	if held {
		s.adm.release()
	}
	f.out = out
	close(f.done)
}

// produce is the leader's path for one missing key: peer fetch, then
// remote execution, then an admitted local run. A local run returns
// holding its admission slot (f.running); lead releases it.
func (s *Server) produce(key string, f *fill, spec Spec, o core.Options, class Class, noRemote bool) execOutcome {
	if s.peer != nil && !noRemote {
		if sr, ok := s.peer(spec); ok {
			s.results.put(key, sr)
			return execOutcome{sr: sr, tier: TierPeer}
		}
	}
	if s.remote != nil && !noRemote {
		if sr, err := s.remote(spec); err == nil {
			s.results.put(key, sr)
			return execOutcome{sr: sr, tier: TierRemote}
		} else if !errors.Is(err, ErrNotRouted) {
			fmt.Fprintf(s.cfg.Log, "selcached: cell %s: remote execution failed, running locally: %v\n", key[:12], err)
		}
	}
	if err := s.admit(f, class); err != nil {
		return execOutcome{err: err}
	}

	w, _ := workloads.Resolve(spec.Workload)
	s.metrics.runStarted()
	start := time.Now()
	row := s.runRow(w, o, s.traces)
	elapsed := time.Since(start)
	var events uint64
	for v := range row.Stats {
		// Zero the one nondeterministic field so identical
		// requests yield byte-identical cached results.
		row.Stats[v].WallNanos = 0
		events += row.Stats[v].Instructions
	}
	s.metrics.runCompleted(elapsed, events)
	sr := StoredResult{Spec: spec, Row: row}
	s.results.put(key, sr)
	return execOutcome{sr: sr, tier: TierComputed}
}

// admit waits for an admission slot for f. The queue wait is not bounded
// by any single request's deadline — other waiters may join while it
// queues — but leave cancels it once every waiter is gone and no
// background credit remains. A granted fill with no waiter left needs a
// background credit to run, and is dropped when none is free.
func (s *Server) admit(f *fill, class Class) error {
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	s.fillMu.Lock()
	f.cancelQueue = qcancel
	s.fillMu.Unlock()
	err := s.adm.acquire(qctx, class)

	s.fillMu.Lock()
	defer s.fillMu.Unlock()
	f.cancelQueue = nil
	if errors.Is(err, context.Canceled) {
		s.bgAborted++
		return errAbandoned
	}
	if err != nil {
		return err
	}
	if f.waiters == 0 {
		if s.bgNow >= s.bgCap {
			s.bgAborted++
			s.adm.release()
			return errAbandoned
		}
		f.background = true
		s.bgNow++
	}
	f.running = true
	return nil
}

// fillMetrics merges the background-fill accounting into an admission
// snapshot.
func (s *Server) fillMetrics(am *AdmissionMetrics) {
	s.fillMu.Lock()
	defer s.fillMu.Unlock()
	am.BackgroundFills = s.bgNow
	am.MaxBackgroundFills = s.bgCap
	am.BackgroundCompleted = s.bgCompleted
	am.BackgroundAborted = s.bgAborted
}
