// Package flight provides Memo, in-flight call deduplication that never
// forgets: when several goroutines ask for the same key at once, one of
// them computes the value and the rest block until it is ready, and every
// later call gets the retained value. That is what a
// record-once/replay-forever store like experiments.TraceCache needs.
//
// Memo is safe for concurrent use and allocation-light: a waiter costs
// one channel receive, a leader one map insert.
//
// A panic in the computing function does not strand waiters: the leader
// observes the original panic value, every waiter panics with a PanicError
// wrapping it, and the key is forgotten so a later call retries.
package flight

import (
	"fmt"
	"sync"
)

// PanicError is what waiters panic with when the leader's fn panicked: the
// waiter goroutines cannot resume the original panic mid-stack, so they
// get the leader's panic value wrapped with enough context to tell the two
// apart in a crash dump.
type PanicError struct {
	// Value is the leader's original panic value (nil when the leader's
	// goroutine exited via runtime.Goexit instead of panicking).
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("flight: shared call panicked: %v", e.Value)
}

// Outcome says how a Memo.Get call was satisfied.
type Outcome int

const (
	// Computed means this caller was the leader: it ran fn itself.
	Computed Outcome = iota
	// Waited means another caller was already computing the value and
	// this one blocked until that computation finished.
	Waited
	// Cached means the value had been computed before the call started.
	Cached
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Computed:
		return "computed"
	case Waited:
		return "waited"
	case Cached:
		return "cached"
	default:
		return "unknown"
	}
}

// call is one in-flight or completed computation.
type call[V any] struct {
	done chan struct{} // closed when val (or the panic) is ready
	val  V
	// didPanic and panicked record a panic (or Goexit) in the leader's fn.
	// They are written before done is closed and read only after it is
	// closed, so the channel provides the necessary ordering.
	didPanic bool
	panicked any
}

// run executes fn on the leader's goroutine, capturing a panic (or a
// Goexit, which also unwinds without returning) into the call before
// closing done. cleanup runs before done is closed so that by the time
// waiters wake up the key is already forgotten.
func (c *call[V]) run(fn func() V, cleanup func()) {
	normal := false
	defer func() {
		if !normal {
			c.didPanic = true
			c.panicked = recover()
		}
		cleanup()
		close(c.done)
	}()
	c.val = fn()
	normal = true
}

// deliver hands the call's outcome to a waiter: the value, or a PanicError
// panic when the leader's fn panicked.
func (c *call[V]) deliver(o Outcome) (V, Outcome) {
	if c.didPanic {
		panic(&PanicError{Value: c.panicked})
	}
	return c.val, o
}

// Memo computes each key's value once: the first call for a key computes
// the value, concurrent duplicates wait for it, and every later call gets
// the retained value without blocking. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// Get returns the memoized value for key, computing it with fn on first
// use. The Outcome distinguishes the leader (Computed), callers that
// overlapped the leader (Waited), and callers that arrived after the
// value was ready (Cached). If fn panics, the leader re-panics with the
// original value, overlapping waiters panic with a *PanicError, and the
// key is dropped instead of retained — a panic outcome is not memoizable,
// so a later Get retries the computation.
func (m *Memo[K, V]) Get(key K, fn func() V) (V, Outcome) {
	m.mu.Lock()
	if m.calls == nil {
		m.calls = make(map[K]*call[V])
	}
	if c, ok := m.calls[key]; ok {
		m.mu.Unlock()
		select {
		case <-c.done:
			return c.deliver(Cached)
		default:
		}
		<-c.done
		return c.deliver(Waited)
	}
	c := &call[V]{done: make(chan struct{})}
	m.calls[key] = c
	m.mu.Unlock()

	c.run(fn, func() {
		if c.didPanic {
			m.mu.Lock()
			delete(m.calls, key)
			m.mu.Unlock()
		}
	})
	if c.didPanic {
		panic(c.panicked)
	}
	return c.val, Computed
}

// Len reports the number of keys held (completed or in flight).
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}
