// Package parallel is the experiment engine's fan-out primitive: a bounded
// worker pool that runs independent simulation cells concurrently and
// assembles their results deterministically.
//
// Every sweep in internal/experiments decomposes into independent cells
// (one workload through all versions under one configuration and
// mechanism). Cells share no mutable state beyond the trace cache — each
// builds a fresh program (or replays a read-only trace) on its worker's
// own machine, reset before every run (MapWith hands each worker one
// core.Runner) — so they can execute on any worker in any order.
// Determinism comes from the assembly side: results are stored by cell
// index, so the output of Map is byte-identical to a serial loop over the
// same cells regardless of worker count or scheduling.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Serial is the worker count that forces the direct, goroutine-free path.
// It is the fallback when the pool itself must be ruled out (debugging,
// environments where spawning is undesirable) and the reference
// implementation the deterministic-assembly guarantee is tested against.
const Serial = 1

// Workers resolves a requested worker count: values < 1 (including the
// zero value of an unset flag) mean "one worker per available CPU"
// (runtime.GOMAXPROCS). Requests above the cell count are harmless; Map
// never spawns more goroutines than it has cells.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// capturedPanic wraps a worker panic so Map can rethrow it on the caller's
// goroutine with the originating cell attached.
type capturedPanic struct {
	cell  int
	value any
}

func (p capturedPanic) Error() string {
	return fmt.Sprintf("parallel: cell %d panicked: %v", p.cell, p.value)
}

// claimChunk sizes the per-CAS claim for an n-cell sweep on w workers:
// enough cells per claim that tiny-cell sweeps do not serialize on the
// shared counter, while keeping at least ~8 claims per worker so load
// stays balanced when cell costs are skewed. Bounded at 64 so one slow
// chunk can never strand a large tail on one worker.
func claimChunk(n, w int) int {
	k := n / (8 * w)
	if k < 1 {
		return 1
	}
	if k > 64 {
		return 64
	}
	return k
}

// Map runs fn(i) for every i in [0, n) across at most Workers(workers)
// goroutines and returns the results ordered by index — byte-identical to
//
//	out := make([]T, n)
//	for i := range out { out[i] = fn(i) }
//
// for any pure fn. With workers <= Serial (or a single cell) it runs
// exactly that loop on the calling goroutine: no pool, no channels.
//
// Workers claim cells in contiguous chunks (claimChunk cells per atomic
// increment), so sweeps of very cheap cells are not serialized by
// contention on the claim counter.
//
// If any fn panics, Map waits for the remaining in-flight cells, then
// re-panics on the calling goroutine with the cell index attached; queued
// cells that had not started are abandoned.
func Map[T any](workers, n int, fn func(int) T) []T {
	return MapWorkers(workers, n, func(_, i int) T { return fn(i) })
}

// MapWorkers is Map with the worker identity exposed: fn(w, i) computes
// cell i on worker w, where 0 <= w < min(Workers(workers), n) and each w
// names exactly one goroutine for the whole call. Sweeps use the identity
// to index per-worker scratch state (Arena) without locking; the serial
// path runs everything as worker 0.
func MapWorkers[T any](workers, n int, fn func(worker, i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= Serial {
		for i := range out {
			out[i] = fn(0, i)
		}
		return out
	}

	chunk := claimChunk(n, w)
	var (
		next    atomic.Int64 // next unclaimed cell
		failed  atomic.Bool  // a worker panicked; stop claiming cells
		panicMu sync.Mutex
		panics  []capturedPanic
		wg      sync.WaitGroup
	)
	worker := func(id int) {
		defer wg.Done()
		for !failed.Load() {
			hi := int(next.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				if failed.Load() {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							failed.Store(true)
							panicMu.Lock()
							panics = append(panics, capturedPanic{cell: i, value: r})
							panicMu.Unlock()
						}
					}()
					out[i] = fn(id, i)
				}()
			}
		}
	}
	wg.Add(w)
	for i := 0; i < w; i++ {
		go worker(i)
	}
	wg.Wait()
	if len(panics) > 0 {
		// Rethrow the panic from the lowest-indexed cell so the failure
		// is deterministic even when several workers blow up at once.
		first := panics[0]
		for _, p := range panics[1:] {
			if p.cell < first.cell {
				first = p
			}
		}
		panic(first)
	}
	return out
}

// ForEach is Map for side-effecting cells that produce no result.
func ForEach(workers, n int, fn func(int)) {
	Map(workers, n, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}

// Pool is the long-lived counterpart of Map for server-style workloads: a
// semaphore-bounded executor that admits tasks as capacity frees up
// instead of fanning out one fixed batch. Map stays the right tool for
// the batch drivers; selcached uses a Pool so concurrent HTTP requests
// share one bounded set of simulation slots, admission can respect a
// per-request deadline, and shutdown can drain in-flight work.
type Pool struct {
	// sem holds the free slot identities; admission takes one, release
	// returns it. Slot identity (not just a count) lets tasks index
	// per-slot state (Arena) without locking: a slot belongs to exactly
	// one running task at a time.
	sem      chan int
	wg       sync.WaitGroup
	inFlight atomic.Int64
}

// NewPool returns a pool admitting at most Workers(workers) concurrent
// tasks.
func NewPool(workers int) *Pool {
	n := Workers(workers)
	sem := make(chan int, n)
	for i := 0; i < n; i++ {
		sem <- i
	}
	return &Pool{sem: sem}
}

// Size reports the pool's concurrency bound.
func (p *Pool) Size() int { return cap(p.sem) }

// InFlight reports the number of tasks currently admitted (waiting tasks
// are not counted).
func (p *Pool) InFlight() int64 { return p.inFlight.Load() }

// Do runs fn on the calling goroutine once a slot is free. If done is
// closed first — a request deadline expiring while the pool is saturated
// — Do gives up without running fn and reports false. A nil done waits
// indefinitely. Panics in fn propagate to the caller after the slot is
// released.
func (p *Pool) Do(done <-chan struct{}, fn func()) bool {
	return p.DoSlot(done, func(int) { fn() })
}

// DoSlot is Do with the admitted slot's identity exposed: fn receives an
// index in [0, Size()) that no other task holds while it runs, suitable
// for indexing per-slot scratch state (Arena).
func (p *Pool) DoSlot(done <-chan struct{}, fn func(slot int)) bool {
	var slot int
	select {
	case slot = <-p.sem:
	default:
		// Saturated: block on either a slot or cancellation.
		select {
		case slot = <-p.sem:
		case <-done:
			return false
		}
	}
	p.wg.Add(1)
	p.inFlight.Add(1)
	defer func() {
		p.inFlight.Add(-1)
		p.wg.Done()
		p.sem <- slot
	}()
	fn(slot)
	return true
}

// Wait blocks until every admitted task has finished. It does not close
// the pool — selcached calls it during graceful drain, after the HTTP
// listener has stopped accepting work.
func (p *Pool) Wait() { p.wg.Wait() }
