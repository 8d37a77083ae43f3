package server

import (
	"testing"
	"time"
)

func TestMetricsRunAccounting(t *testing.T) {
	m := newMetrics()
	m.runStarted()
	m.runCompleted(100*time.Millisecond, 1_000_000)
	m.runStarted()
	m.runCompleted(300*time.Millisecond, 3_000_000)
	m.runDeduped()
	m.runStarted() // still running: in_flight is started minus completed

	rm := m.snapshotRuns()
	if rm.Started != 3 || rm.Completed != 2 || rm.Deduped != 1 || rm.InFlight != 1 {
		t.Fatalf("snapshot = %+v", rm)
	}
	if rm.Events != 4_000_000 {
		t.Fatalf("events = %d", rm.Events)
	}
	// 4M events over 0.4s of run time.
	if rm.EventsPerSec < 9.9e6 || rm.EventsPerSec > 10.1e6 {
		t.Fatalf("events/sec = %g, want ~1e7", rm.EventsPerSec)
	}
	if rm.P50Millis != 100 || rm.P99Millis != 300 {
		t.Fatalf("p50/p99 = %g/%g, want 100/300", rm.P50Millis, rm.P99Millis)
	}
}

func TestMetricsLatencyWindowWraps(t *testing.T) {
	m := newMetrics()
	// Fill beyond the window with 1ms, then overwrite the whole window
	// with 5ms: the quantiles must reflect only the recent values.
	for i := 0; i < latencyWindow; i++ {
		m.runCompleted(time.Millisecond, 0)
	}
	for i := 0; i < latencyWindow; i++ {
		m.runCompleted(5*time.Millisecond, 0)
	}
	rm := m.snapshotRuns()
	if rm.P50Millis != 5 || rm.P99Millis != 5 {
		t.Fatalf("p50/p99 = %g/%g, want 5/5 after window wrap", rm.P50Millis, rm.P99Millis)
	}
}

// TestMetricsLatencyWindowPartialRollover covers the ring mid-wrap: the
// newest half has overwritten the oldest half, so the quantiles must see
// a mix of both generations — not just whichever wrote last.
func TestMetricsLatencyWindowPartialRollover(t *testing.T) {
	m := newMetrics()
	for i := 0; i < latencyWindow; i++ {
		m.runCompleted(10*time.Millisecond, 0)
	}
	for i := 0; i < latencyWindow/2; i++ {
		m.runCompleted(time.Millisecond, 0)
	}
	rm := m.snapshotRuns()
	// Sorted window: latencyWindow/2 values at 1ms, then latencyWindow/2 at
	// 10ms. Nearest-rank p50 lands on the last 1ms, p99 in the 10ms half.
	if rm.P50Millis != 1 {
		t.Fatalf("p50 = %g, want 1 (new generation) mid-rollover", rm.P50Millis)
	}
	if rm.P99Millis != 10 {
		t.Fatalf("p99 = %g, want 10 (old generation) mid-rollover", rm.P99Millis)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("quantile(nil) = %g", q)
	}
	one := []time.Duration{42 * time.Millisecond}
	if q := quantile(one, 0.99); q != 42 {
		t.Fatalf("quantile(one, .99) = %g", q)
	}
	four := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	if q := quantile(four, 0.5); q != 2 {
		t.Fatalf("quantile(four, .5) = %g, want 2", q)
	}
}

func TestMetricsRequestCounters(t *testing.T) {
	m := newMetrics()
	m.request("run")
	m.request("run")
	m.request("healthz")
	got := m.snapshotRequests()
	if got["run"] != 2 || got["healthz"] != 1 {
		t.Fatalf("requests = %v", got)
	}
	// The snapshot is a copy: mutating it must not corrupt the source.
	got["run"] = 99
	if m.snapshotRequests()["run"] != 2 {
		t.Fatal("snapshot aliases internal state")
	}
}
