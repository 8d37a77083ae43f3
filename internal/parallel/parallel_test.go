package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{Serial, 2, 4, 16} {
		got := Map(workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(int) int { return 1 }); got != nil {
		t.Fatalf("Map over zero cells returned %v", got)
	}
}

func TestMapRunsEveryCellOnce(t *testing.T) {
	var counts [257]atomic.Int64
	Map(8, len(counts), func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var live, peak atomic.Int64
	Map(workers, 64, func(i int) struct{} {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		live.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent cells with %d workers", p, workers)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		cp, ok := r.(capturedPanic)
		if !ok {
			t.Fatalf("recovered %T, want capturedPanic", r)
		}
		if cp.value != "boom" {
			t.Fatalf("panic value %v", cp.value)
		}
	}()
	Map(4, 32, func(i int) int {
		if i == 5 {
			panic("boom")
		}
		return i
	})
}

func TestMapSerialPanicUnwrapped(t *testing.T) {
	// The serial path is a plain loop; the panic surfaces directly on
	// the calling goroutine.
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("serial panic did not propagate")
		}
	}()
	Map(Serial, 4, func(i int) int {
		if i == 2 {
			panic("serial boom")
		}
		return i
	})
}
