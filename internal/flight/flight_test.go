package flight

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemoRetainsValues(t *testing.T) {
	var m Memo[int, string]
	var computed atomic.Int64

	v, out := m.Get(1, func() string { computed.Add(1); return "one" })
	if v != "one" || out != Computed {
		t.Fatalf("first Get = (%q, %v), want (one, Computed)", v, out)
	}
	v, out = m.Get(1, func() string { computed.Add(1); return "other" })
	if v != "one" || out != Cached {
		t.Fatalf("second Get = (%q, %v), want (one, Cached)", v, out)
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMemoConcurrentSingleCompute(t *testing.T) {
	var m Memo[string, int]
	var computed atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			if v, _ := m.Get("k", func() int { computed.Add(1); return 9 }); v != 9 {
				t.Errorf("got %d, want 9", v)
			}
		}()
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

func TestOutcomeString(t *testing.T) {
	for out, want := range map[Outcome]string{Computed: "computed", Waited: "waited", Cached: "cached", Outcome(99): "unknown"} {
		if got := out.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(out), got, want)
		}
	}
}

// panicOutcome runs f and reports what it panicked with (nil if it
// returned normally).
func panicOutcome(f func()) (value any, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			value, panicked = r, true
		}
	}()
	f()
	return nil, false
}

// TestMemoPanicRetries checks the Memo side: waiters that overlapped a
// panicking leader get the PanicError, the poisoned key is not memoized,
// and the next Get runs fn again.
func TestMemoPanicRetries(t *testing.T) {
	var m Memo[string, int]
	release := make(chan struct{})
	started := make(chan struct{})

	leaderDone := make(chan any, 1)
	go func() {
		v, _ := panicOutcome(func() {
			m.Get("k", func() int {
				close(started)
				<-release
				panic(42)
			})
		})
		leaderDone <- v
	}()
	<-started

	waiterDone := make(chan any, 1)
	go func() {
		v, _ := panicOutcome(func() { m.Get("k", func() int { return -1 }) })
		waiterDone <- v
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)

	if v := <-leaderDone; v != 42 {
		t.Fatalf("leader panicked with %v, want 42", v)
	}
	select {
	case v := <-waiterDone:
		if pe, ok := v.(*PanicError); !ok || pe.Value != 42 {
			t.Fatalf("waiter panicked with %v, want *PanicError{42}", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after leader panic")
	}

	if m.Len() != 0 {
		t.Fatalf("panicked key retained: Len = %d, want 0", m.Len())
	}
	if v, out := m.Get("k", func() int { return 5 }); v != 5 || out != Computed {
		t.Fatalf("post-panic Get = (%d, %v), want (5, Computed)", v, out)
	}
}

func TestPanicErrorMessage(t *testing.T) {
	err := &PanicError{Value: "boom"}
	if got := err.Error(); got != "flight: shared call panicked: boom" {
		t.Fatalf("Error() = %q", got)
	}
}
