package parallel

// arena holds one lazily-created value per worker, each behind its own
// cache-line-padded slot, so workers that mutate their value on every cell
// (a core.Runner's machine) never false-share a line with a neighbour.
//
// Two layout decisions do the work. First, each slot is padded to 128
// bytes — two 64-byte lines, covering the adjacent-line prefetcher on
// common x86 parts — so slot writes by worker w never invalidate slot
// w±1's line. Second, the value itself is created on first Get, which
// mapWorkers workers issue from their own goroutine: the backing memory is
// first-touched (and, on NUMA hosts with first-touch placement, physically
// placed) by the thread that will use it, rather than by the coordinating
// goroutine that built the arena.
//
// Concurrency contract: Get(w) may only be called by mapWorkers worker w,
// which makes each slot single-threaded by construction; the WaitGroup
// that ends the call publishes every slot's value to the caller.
type arena[T any] struct {
	slots []paddedSlot[T]
	newT  func() *T
}

// paddedSlot spaces the per-worker pointers 128 bytes apart.
type paddedSlot[T any] struct {
	v *T
	_ [120]byte
}

// newArena returns an arena with Workers(workers) slots whose values are
// created by newT on first use.
func newArena[T any](workers int, newT func() *T) *arena[T] {
	return &arena[T]{
		slots: make([]paddedSlot[T], Workers(workers)),
		newT:  newT,
	}
}

// Slots reports the number of worker slots.
func (a *arena[T]) Slots() int { return len(a.slots) }

// Get returns worker w's value, creating it on first use from the worker's
// own goroutine (first-touch).
func (a *arena[T]) Get(w int) *T {
	s := &a.slots[w]
	if s.v == nil {
		s.v = a.newT()
	}
	return s.v
}

// MapWith is Map with one zero-valued S per worker, held in an arena and
// handed to every cell the worker runs: per-worker scratch state (a
// core.Runner's machine) is built once per worker instead of once per
// cell, and is garbage once MapWith returns.
func MapWith[S, T any](workers, n int, fn func(s *S, i int) T) []T {
	states := newArena(workers, func() *S { return new(S) })
	return mapWorkers(workers, n, func(w, i int) T { return fn(states.Get(w), i) })
}
