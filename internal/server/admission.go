// admission.go is selcached's overload policy: request priority classes,
// weighted fair queueing over the simulation slots, and load shedding.
// Without it, saturated slots would queue waiters without bound and every
// queued request would eventually answer 504 — the worst of both worlds
// (memory growth and no early signal). Each simulation must be admitted:
// free slots are granted immediately, a bounded backlog queues behind them
// with run-class requests weighted ahead of bulk sweep cells, and anything
// past the backlog bound is shed with 429 and a Retry-After hint sized
// from the current queue and observed run latency.
//
// Estimates are a class of their own but never queue behind simulations:
// a symbolic answer costs microseconds, so it gets a generous concurrency
// bound of its own and sheds instantly past it — queueing a microsecond
// answer behind a multi-second simulation would destroy the zero-cost
// tier's reason to exist.
package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"
)

// Class is a request's priority class for admission control.
type Class int

const (
	// ClassRun is an interactive single-cell run (POST /v1/run).
	ClassRun Class = iota
	// ClassSweep is one cell of a bulk sweep (POST /v1/sweep).
	ClassSweep
	// ClassEstimate is a zero-cost symbolic estimate (POST /v1/estimate).
	ClassEstimate
	numClasses
)

// String returns the class name used in /metrics maps.
func (c Class) String() string {
	switch c {
	case ClassRun:
		return "run"
	case ClassSweep:
		return "sweep"
	case ClassEstimate:
		return "estimate"
	default:
		return "unknown"
	}
}

// classWeight sets the fair-queueing grant ratio between the simulation
// classes when both have a backlog: for every sweep cell admitted, up to
// two runs are. Estimate has no weight because it never holds a
// simulation slot.
var classWeight = [numClasses]int{ClassRun: 2, ClassSweep: 1, ClassEstimate: 0}

// overloadError is the shed signal: the server refused to queue the
// request. Handlers translate it to 429 with a Retry-After header.
type overloadError struct {
	retryAfter int // seconds
}

func (e *overloadError) Error() string {
	return fmt.Sprintf("overloaded: backlog full, retry in %ds", e.retryAfter)
}

// waiter is one queued admission request.
type waiter struct {
	ch      chan struct{} // closed on grant
	granted bool
}

// admission is the gate in front of local simulation and the only bound
// on how many simulations run at once: a fill runs only while it holds
// one of the gate's slots. Fairness and shedding both live here, where
// the queue is visible.
type admission struct {
	slots        int
	maxBacklog   int
	maxEstimates int
	// typicalRun reports the observed p50 run latency for Retry-After
	// sizing (nil or zero return: 1s assumed).
	typicalRun func() time.Duration

	mu       sync.Mutex
	free     int
	queues   [numClasses]*list.List // of *waiter; estimate queue stays empty
	queued   int                    // total queued waiters across sim classes
	credit   [numClasses]int        // deficit round-robin credit
	estBusy  int
	admitted [numClasses]uint64
	shed     [numClasses]uint64
}

// newAdmission returns a gate over slots simulation tokens. maxBacklog
// bounds queued waiters (<=0: 16x slots, at least 256 so a full Table-3
// sweep's 156 cells queue without shedding); maxEstimates bounds
// concurrent inline estimates (<=0: 8x slots, at least 16).
func newAdmission(slots, maxBacklog, maxEstimates int, typicalRun func() time.Duration) *admission {
	if slots < 1 {
		slots = 1
	}
	if maxBacklog <= 0 {
		maxBacklog = 16 * slots
		if maxBacklog < 256 {
			maxBacklog = 256
		}
	}
	if maxEstimates <= 0 {
		maxEstimates = 8 * slots
		if maxEstimates < 16 {
			maxEstimates = 16
		}
	}
	a := &admission{
		slots:        slots,
		maxBacklog:   maxBacklog,
		maxEstimates: maxEstimates,
		typicalRun:   typicalRun,
		free:         slots,
	}
	for c := range a.queues {
		a.queues[c] = list.New()
	}
	return a
}

// acquire admits one simulation of the given class, blocking in the
// class's fair queue while every slot is taken. It returns nil when the
// caller holds a slot (pair with release), an *overloadError when the
// backlog bound sheds the request, or ctx.Err when ctx is done first.
func (a *admission) acquire(ctx context.Context, class Class) error {
	a.mu.Lock()
	if a.free > 0 {
		// Invariant: waiters only exist while free == 0 (a released slot
		// transfers straight to the next waiter), so a free slot means an
		// empty queue and the grant is immediate.
		a.free--
		a.admitted[class]++
		a.mu.Unlock()
		return nil
	}
	if a.queued >= a.maxBacklog {
		a.shed[class]++
		retry := a.retryAfterLocked()
		a.mu.Unlock()
		return &overloadError{retryAfter: retry}
	}
	w := &waiter{ch: make(chan struct{})}
	el := a.queues[class].PushBack(w)
	a.queued++
	a.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if !w.granted {
			a.queues[class].Remove(el)
			a.queued--
			a.mu.Unlock()
			return ctx.Err()
		}
		a.mu.Unlock()
		// The grant raced the cancellation: we own a slot nobody will
		// use. Hand it on.
		a.release()
		return ctx.Err()
	}
}

// release returns a slot, handing it directly to the next waiter chosen
// by weighted deficit round-robin across the simulation classes.
func (a *admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	w, class := a.pickLocked()
	if w == nil {
		a.free++
		return
	}
	w.granted = true
	a.queued--
	a.admitted[class]++
	close(w.ch)
}

// pickLocked chooses the next class to grant by deficit round-robin: each
// replenish round gives every backlogged class its weight in credits, and
// grants spend them. With both sim classes backlogged the grant ratio
// converges to classWeight (2 runs : 1 sweep cell); an uncontended class
// is granted immediately. Callers hold mu.
func (a *admission) pickLocked() (*waiter, Class) {
	for round := 0; round < 2; round++ {
		for c := Class(0); c < numClasses; c++ {
			if a.queues[c].Len() > 0 && a.credit[c] > 0 {
				a.credit[c]--
				el := a.queues[c].Front()
				a.queues[c].Remove(el)
				return el.Value.(*waiter), c
			}
		}
		// Replenish: give every backlogged class its weight. Credit held
		// by a class with no waiters is cleared so an idle class cannot
		// bank an unfair burst.
		any := false
		for c := Class(0); c < numClasses; c++ {
			if a.queues[c].Len() > 0 {
				a.credit[c] += classWeight[c]
				any = true
			} else {
				a.credit[c] = 0
			}
		}
		if !any {
			return nil, 0
		}
	}
	return nil, 0 // unreachable: a replenish round always funds a grant
}

// acquireEstimate admits one inline estimate, or sheds with 429 when the
// concurrent-estimate bound is reached. Estimates never queue.
func (a *admission) acquireEstimate() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.estBusy >= a.maxEstimates {
		a.shed[ClassEstimate]++
		return &overloadError{retryAfter: 1}
	}
	a.estBusy++
	a.admitted[ClassEstimate]++
	return nil
}

// releaseEstimate returns an estimate token.
func (a *admission) releaseEstimate() {
	a.mu.Lock()
	a.estBusy--
	a.mu.Unlock()
}

// retryAfterLocked sizes the Retry-After hint: the queue's expected drain
// time at the observed p50 run latency, clamped to [1s, 60s]. Callers
// hold mu.
func (a *admission) retryAfterLocked() int {
	run := time.Second
	if a.typicalRun != nil {
		if d := a.typicalRun(); d > 0 {
			run = d
		}
	}
	drain := time.Duration(a.queued/a.slots+1) * run
	secs := int((drain + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// AdmissionMetrics is the admission-control section of a /metrics
// snapshot: per-class counters plus the background-fill accounting of
// the in-flight fills.
type AdmissionMetrics struct {
	// MaxBacklog is the shed bound; Queued is the current per-class queue
	// depth.
	MaxBacklog int            `json:"max_backlog"`
	Queued     map[string]int `json:"queued"`
	// Admitted and Shed are lifetime per-class counters.
	Admitted map[string]uint64 `json:"admitted"`
	Shed     map[string]uint64 `json:"shed"`
	// BackgroundFills is the current number of simulations running with
	// no live waiter (their requesters timed out); the Completed/Aborted
	// pair are lifetime counters, where aborted means a queued fill was
	// dropped before starting because the background bound was reached.
	BackgroundFills     int    `json:"background_fills"`
	MaxBackgroundFills  int    `json:"max_background_fills"`
	BackgroundCompleted uint64 `json:"background_completed"`
	BackgroundAborted   uint64 `json:"background_aborted"`
}

// snapshot captures the admission counters (the background-fill fields
// are merged in by the caller).
func (a *admission) snapshot() AdmissionMetrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	am := AdmissionMetrics{
		MaxBacklog: a.maxBacklog,
		Queued:     make(map[string]int, numClasses),
		Admitted:   make(map[string]uint64, numClasses),
		Shed:       make(map[string]uint64, numClasses),
	}
	for c := Class(0); c < numClasses; c++ {
		am.Queued[c.String()] = a.queues[c].Len()
		am.Admitted[c.String()] = a.admitted[c]
		am.Shed[c.String()] = a.shed[c]
	}
	am.Queued[ClassEstimate.String()] = a.estBusy // estimates never queue; report concurrency
	return am
}
