package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestClaimChunkBounds(t *testing.T) {
	cases := []struct {
		n, w, want int
	}{
		{n: 1, w: 8, want: 1},     // tiny sweep: one cell per claim
		{n: 64, w: 8, want: 1},    // n/(8w) = 1
		{n: 63, w: 8, want: 1},    // rounds down to 0, clamped up
		{n: 1024, w: 8, want: 16}, // interior value
		{n: 1 << 20, w: 2, want: 64},
		{n: 1 << 30, w: 1, want: 64}, // capped so tails stay balanced
	}
	for _, c := range cases {
		if got := claimChunk(c.n, c.w); got != c.want {
			t.Errorf("claimChunk(%d, %d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
	// Regardless of inputs the chunk must stay in [1, 64].
	for n := 1; n < 3000; n += 7 {
		for w := 1; w <= 32; w *= 2 {
			k := claimChunk(n, w)
			if k < 1 || k > 64 {
				t.Fatalf("claimChunk(%d, %d) = %d outside [1, 64]", n, w, k)
			}
		}
	}
}

func TestMapWorkersCoversEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		const n = 1000
		var runs [n]atomic.Int32
		ids := MapWorkers(workers, n, func(w, i int) int {
			runs[i].Add(1)
			return w
		})
		cap := Workers(workers)
		if cap > n {
			cap = n
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

func TestMapWorkersSerialUsesWorkerZero(t *testing.T) {
	ids := MapWorkers(Serial, 32, func(w, _ int) int { return w })
	for i, w := range ids {
		if w != 0 {
			t.Fatalf("serial cell %d reported worker %d", i, w)
		}
	}
}

func TestArenaIdentityAndLaziness(t *testing.T) {
	var created atomic.Int32
	a := NewArena[int](4, func() *int {
		created.Add(1)
		return new(int)
	})
	if a.Slots() != 4 {
		t.Fatalf("Slots() = %d, want 4", a.Slots())
	}
	if created.Load() != 0 {
		t.Fatalf("%d values created before first Get", created.Load())
	}
	p0, p1 := a.Get(0), a.Get(1)
	if p0 == p1 {
		t.Fatal("distinct slots share a value")
	}
	if a.Get(0) != p0 || a.Get(1) != p1 {
		t.Fatal("Get is not stable per slot")
	}
	if created.Load() != 2 {
		t.Fatalf("%d values created, want 2 (untouched slots stay empty)", created.Load())
	}
}

func TestArenaPerWorkerStateUnderMap(t *testing.T) {
	// Each worker accumulates into its own slot; the per-slot totals must
	// add up to every cell exactly once, proving no slot was shared.
	const n, workers = 500, 4
	a := NewArena[int](workers, func() *int { return new(int) })
	MapWorkers(workers, n, func(w, i int) struct{} {
		*a.Get(w) += 1
		return struct{}{}
	})
	total := 0
	for w := 0; w < a.Slots(); w++ {
		total += *a.Get(w)
	}
	if total != n {
		t.Fatalf("per-worker counts sum to %d, want %d", total, n)
	}
}

// TestMapWithPerWorkerState: every cell sees its worker's own state, one
// value per worker at most, and results still land in cell order.
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

func TestPoolDoSlotIdentitiesExclusive(t *testing.T) {
	const slots, tasks = 3, 60
	p := NewPool(slots)
	held := make([]atomic.Bool, slots)
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		go func() {
			defer wg.Done()
			ok := p.DoSlot(nil, func(s int) {
				if s < 0 || s >= slots {
					t.Errorf("slot %d outside [0, %d)", s, slots)
					return
				}
				if !held[s].CompareAndSwap(false, true) {
					t.Errorf("slot %d admitted twice concurrently", s)
					return
				}
				held[s].Store(false)
			})
			if !ok {
				t.Error("DoSlot with nil done returned false")
			}
		}()
	}
	wg.Wait()
	p.Wait()
}
