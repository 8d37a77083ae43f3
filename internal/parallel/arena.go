package parallel

// Arena holds one lazily-created value per worker, each behind its own
// cache-line-padded slot, so workers that mutate their value on every cell
// (reusable replay blocks, scratch machines) never false-share a line with
// a neighbour.
//
// Two layout decisions do the work. First, each slot is padded to 128
// bytes — two 64-byte lines, covering the adjacent-line prefetcher on
// common x86 parts — so slot writes by worker w never invalidate slot
// w±1's line. Second, the value itself is created on first Get, which
// MapWorkers/DoSlot callers issue from the worker's own goroutine: the
// backing memory is first-touched (and, on NUMA hosts with first-touch
// placement, physically placed) by the thread that will use it, rather
// than by the coordinating goroutine that built the arena.
//
// Concurrency contract: Get(w) may only be called while w is held — a
// MapWorkers worker identity or a Pool slot from DoSlot — which makes each
// slot single-threaded by construction. The happens-before edges of the
// claiming machinery (WaitGroup, channel semaphore) publish a slot's value
// to the next holder.
type Arena[T any] struct {
	slots []paddedSlot[T]
	newT  func() *T
}

// paddedSlot spaces the per-worker pointers 128 bytes apart.
type paddedSlot[T any] struct {
	v *T
	_ [120]byte
}

// NewArena returns an arena with Workers(workers) slots whose values are
// created by newT on first use.
func NewArena[T any](workers int, newT func() *T) *Arena[T] {
	return &Arena[T]{
		slots: make([]paddedSlot[T], Workers(workers)),
		newT:  newT,
	}
}

// Slots reports the number of worker slots.
func (a *Arena[T]) Slots() int { return len(a.slots) }

// Get returns worker w's value, creating it on first use from the worker's
// own goroutine (first-touch).
func (a *Arena[T]) Get(w int) *T {
	s := &a.slots[w]
	if s.v == nil {
		s.v = a.newT()
	}
	return s.v
}

// MapWith is MapWorkers with one zero-valued S per worker, held in an Arena
// and handed to every cell the worker runs: per-worker scratch state (a
// core.Runner's machine) is built once per worker instead of once per
// cell, and is garbage once MapWith returns.
func MapWith[S, T any](workers, n int, fn func(s *S, i int) T) []T {
	states := NewArena(workers, func() *S { return new(S) })
	return MapWorkers(workers, n, func(w, i int) T { return fn(states.Get(w), i) })
}
