package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapWorkersCoversEveryCellOnce: every cell runs exactly once, on one
// of at most min(workers, n) workers, each set up once.
func TestMapWorkersCoversEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		const n = 1000
		var runs [n]atomic.Int32
		var started atomic.Int32
		ids := mapWorkers(workers, n, func() func(int) int {
			id := int(started.Add(1)) - 1
			return func(i int) int {
				runs[i].Add(1)
				return id
			}
		})
		cap := Workers(workers)
		if cap > n {
			cap = n
		}
		if got := int(started.Load()); got > cap {
			t.Fatalf("workers=%d: %d workers set up, want at most %d", workers, got, cap)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, got)
			}
			if ids[i] < 0 || ids[i] >= cap {
				t.Fatalf("workers=%d: cell %d ran on worker %d, want [0, %d)", workers, i, ids[i], cap)
			}
		}
	}
}

// TestMapWorkersSerialUsesWorkerZero: the serial path is one worker, set
// up once.
func TestMapWorkersSerialUsesWorkerZero(t *testing.T) {
	var started atomic.Int32
	ids := mapWorkers(Serial, 32, func() func(int) int {
		id := int(started.Add(1)) - 1
		return func(int) int { return id }
	})
	if started.Load() != 1 {
		t.Fatalf("serial path set up %d workers", started.Load())
	}
	for i, w := range ids {
		if w != 0 {
			t.Fatalf("serial cell %d reported worker %d", i, w)
		}
	}
}

// TestArenaPerWorkerStateUnderMap: each worker accumulates into the state
// it made at setup; the per-worker totals must add up to every cell exactly
// once, proving no state was shared.
func TestArenaPerWorkerStateUnderMap(t *testing.T) {
	const n, workers = 500, 4
	var mu sync.Mutex
	var counts []*int
	mapWorkers(workers, n, func() func(int) struct{} {
		c := new(int)
		mu.Lock()
		counts = append(counts, c)
		mu.Unlock()
		return func(int) struct{} {
			*c++
			return struct{}{}
		}
	})
	if len(counts) > workers {
		t.Fatalf("%d worker states made, want at most %d", len(counts), workers)
	}
	total := 0
	for _, c := range counts {
		total += *c
	}
	if total != n {
		t.Fatalf("per-worker counts sum to %d, want %d", total, n)
	}
}

// TestMapWithPerWorkerState: every cell sees its worker's own state, one
// value per worker at most, so the per-state cell counts add up to every
// cell exactly once (no state was shared), and results still land in cell
// order.
func TestMapWithPerWorkerState(t *testing.T) {
	const n = 500
	for _, workers := range []int{Serial, 2, 4} {
		type state struct{ cells int }
		seen := make(map[*state]bool)
		var mu sync.Mutex
		out := MapWith(workers, n, func(s *state, i int) int {
			s.cells++
			mu.Lock()
			seen[s] = true
			mu.Unlock()
			return i
		})
		total := 0
		for s := range seen {
			total += s.cells
		}
		if total != n || len(seen) > workers {
			t.Fatalf("workers=%d: %d states ran %d cells, want at most %d states and %d cells", workers, len(seen), total, workers, n)
		}
		for i, v := range out {
			if v != i {
				t.Fatalf("workers=%d: cell %d returned %d", workers, i, v)
			}
		}
	}
}
