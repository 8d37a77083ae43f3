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

// Map runs fn(i) for every i in [0, n) across at most Workers(workers)
// goroutines and returns the results ordered by index — byte-identical to
//
//	out := make([]T, n)
//	for i := range out { out[i] = fn(i) }
//
// for any pure fn. With workers <= Serial (or a single cell) it runs
// exactly that loop on the calling goroutine: no pool, no channels.
//
// Workers claim one cell per atomic increment. A cell costs at least
// microseconds (an estimate) and usually milliseconds to seconds (a
// simulation), so the claim is noise beside it, and no worker is left
// holding a batch of slow cells at the end.
//
// If any fn panics, Map waits for the remaining in-flight cells, then
// re-panics on the calling goroutine with the cell index attached; queued
// cells that had not started are abandoned.
func Map[T any](workers, n int, fn func(int) T) []T {
	return mapWorkers(workers, n, func() func(int) T { return fn })
}

// MapWith is Map with one zero-valued S per worker: each worker creates its
// S once, on its own goroutine, and hands it to every cell it runs. So
// per-worker scratch state (a core.Runner's machine) is built once per
// worker instead of once per cell, first touched by the goroutine that
// uses it, and garbage once MapWith returns.
func MapWith[S, T any](workers, n int, fn func(s *S, i int) T) []T {
	return mapWorkers(workers, n, func() func(int) T {
		s := new(S)
		return func(i int) T { return fn(s, i) }
	})
}

// mapWorkers runs the cells of Map and MapWith. Each worker calls
// newWorker once, on its own goroutine, and computes every cell it claims
// with the function it got back; the serial path is one such worker on the
// calling goroutine.
func mapWorkers[T any](workers, n int, newWorker func() func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= Serial {
		fn := newWorker()
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next    atomic.Int64 // next unclaimed cell
		failed  atomic.Bool  // a worker panicked; stop claiming cells
		panicMu sync.Mutex
		panics  []capturedPanic
		wg      sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		fn := newWorker()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
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
				out[i] = fn(i)
			}()
		}
	}
	wg.Add(w)
	for i := 0; i < w; i++ {
		go worker()
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
