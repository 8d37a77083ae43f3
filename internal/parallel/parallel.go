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
	return mapWorkers(workers, n, func(_, i int) T { return fn(i) })
}

// mapWorkers is Map with the worker identity exposed: fn(w, i) computes
// cell i on worker w, where 0 <= w < min(Workers(workers), n) and each w
// names exactly one goroutine for the whole call. MapWith uses the
// identity to index per-worker state (arena) without locking; the serial
// path runs everything as worker 0.
func mapWorkers[T any](workers, n int, fn func(worker, i int) T) []T {
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
