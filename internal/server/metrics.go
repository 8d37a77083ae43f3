package server

import (
	"sort"
	"sync"
	"time"
)

// latencyWindow is how many recent run latencies the percentile estimator
// keeps. Quantiles are computed over this sliding window, so they track
// current behavior instead of averaging over the server's whole life.
const latencyWindow = 1024

// latencyRing keeps the most recent latencyWindow latencies.
type latencyRing struct {
	buf   [latencyWindow]time.Duration
	count uint64 // total latencies ever recorded
}

func (r *latencyRing) add(d time.Duration) {
	r.buf[r.count%latencyWindow] = d
	r.count++
}

// sorted returns the window's latencies in ascending order.
func (r *latencyRing) sorted() []time.Duration {
	lat := make([]time.Duration, min(r.count, latencyWindow))
	copy(lat, r.buf[:])
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat
}

// metrics aggregates everything GET /metrics reports that is not owned
// by another component (the result and trace caches snapshot themselves).
type metrics struct {
	start time.Time

	mu sync.Mutex
	// requests counts handled HTTP requests per endpoint name.
	requests map[string]uint64
	// runsStarted/runsCompleted count underlying simulation executions
	// (deduplicated and cached requests do not start runs); runsDeduped
	// counts requests that piggybacked on an in-flight identical run.
	runsStarted, runsCompleted, runsDeduped uint64
	// events is the total simulated instruction count across completed
	// runs and runNanos the total wall time they took, for the
	// aggregate events-per-second figure.
	events   uint64
	runNanos int64
	runLat   latencyRing

	// tiers counts served results per cache-hierarchy tier (memory,
	// disk, peer, remote, computed). Deduplicated waiters count under
	// their leader's tier, so the sum equals results served, not fills.
	tiers map[string]uint64

	// estVerdicts counts served estimates per verdict ("exact",
	// "bounded", "declined"); estLat is kept apart from runLat because
	// estimates are ~6 orders of magnitude faster and would otherwise
	// vanish under simulation latencies.
	estVerdicts map[string]uint64
	estLat      latencyRing
}

func newMetrics() *metrics {
	return &metrics{
		start:       time.Now(),
		requests:    make(map[string]uint64),
		tiers:       make(map[string]uint64),
		estVerdicts: make(map[string]uint64),
	}
}

// request counts one handled request against an endpoint.
func (m *metrics) request(endpoint string) {
	m.mu.Lock()
	m.requests[endpoint]++
	m.mu.Unlock()
}

// tierServed counts one result served from the named hierarchy tier.
func (m *metrics) tierServed(tier string) {
	m.mu.Lock()
	m.tiers[tier]++
	m.mu.Unlock()
}

// snapshotTiers copies the per-tier counters.
func (m *metrics) snapshotTiers() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.tiers))
	for k, v := range m.tiers {
		out[k] = v
	}
	return out
}

// typicalRun estimates how long one simulation takes right now — the
// median of the recent-latency window — for sizing Retry-After hints.
// Zero until the first run completes.
func (m *metrics) typicalRun() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	lat := m.runLat.sorted()
	if len(lat) == 0 {
		return 0
	}
	return lat[len(lat)/2]
}

func (m *metrics) runStarted() {
	m.mu.Lock()
	m.runsStarted++
	m.mu.Unlock()
}

func (m *metrics) runDeduped() {
	m.mu.Lock()
	m.runsDeduped++
	m.mu.Unlock()
}

// runCompleted records one finished simulation run: its wall time and
// how many simulated events it processed.
func (m *metrics) runCompleted(d time.Duration, events uint64) {
	m.mu.Lock()
	m.runsCompleted++
	m.events += events
	m.runNanos += int64(d)
	m.runLat.add(d)
	m.mu.Unlock()
}

// estimateServed records one served symbolic estimate: its verdict and
// how long the analysis took.
func (m *metrics) estimateServed(verdict string, d time.Duration) {
	m.mu.Lock()
	m.estVerdicts[verdict]++
	m.estLat.add(d)
	m.mu.Unlock()
}

// EstimateMetrics is the zero-cost-tier section of a metrics snapshot.
// Latencies are in microseconds — the natural unit of a symbolic answer.
type EstimateMetrics struct {
	Served    uint64            `json:"served"`
	Verdicts  map[string]uint64 `json:"verdicts"`
	P50Micros float64           `json:"latency_p50_us"`
	P99Micros float64           `json:"latency_p99_us"`
}

// snapshotEstimates computes the estimate section.
func (m *metrics) snapshotEstimates() EstimateMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := EstimateMetrics{Served: m.estLat.count, Verdicts: make(map[string]uint64, len(m.estVerdicts))}
	for k, v := range m.estVerdicts {
		em.Verdicts[k] = v
	}
	lat := m.estLat.sorted()
	em.P50Micros = quantile(lat, 0.50) * 1000
	em.P99Micros = quantile(lat, 0.99) * 1000
	return em
}

// RunMetrics is the simulation-execution section of a metrics snapshot.
type RunMetrics struct {
	Started   uint64 `json:"started"`
	Completed uint64 `json:"completed"`
	InFlight  int64  `json:"in_flight"`
	Deduped   uint64 `json:"deduped"`
	// Events is total simulated instructions across completed runs;
	// EventsPerSec divides it by the total run wall time.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	P50Millis    float64 `json:"latency_p50_ms"`
	P99Millis    float64 `json:"latency_p99_ms"`
}

// snapshotRuns computes the run section.
func (m *metrics) snapshotRuns() RunMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm := RunMetrics{
		Started:   m.runsStarted,
		Completed: m.runsCompleted,
		InFlight:  int64(m.runsStarted - m.runsCompleted),
		Deduped:   m.runsDeduped,
		Events:    m.events,
	}
	if m.runNanos > 0 {
		rm.EventsPerSec = float64(m.events) / (float64(m.runNanos) * 1e-9)
	}
	lat := m.runLat.sorted()
	rm.P50Millis = quantile(lat, 0.50)
	rm.P99Millis = quantile(lat, 0.99)
	return rm
}

// quantile returns the q-th quantile of sorted latencies in milliseconds
// (nearest-rank).
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// snapshotRequests copies the per-endpoint counters.
func (m *metrics) snapshotRequests() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.requests))
	for k, v := range m.requests {
		out[k] = v
	}
	return out
}
