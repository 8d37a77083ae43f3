package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/workloads"
)

// gatedServer returns a test server whose runRow blocks until the
// returned release function is called (once per started run).
func gatedServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	gate := make(chan struct{})
	s, ts := newTestServer(t, cfg)
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		<-gate
		return stubRow(w)
	})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	// A failed assertion must not wedge the httptest Close on a gated
	// handler; always open the gate at cleanup.
	t.Cleanup(release)
	return s, ts.URL, release
}

// runBody builds a /v1/run body for one named workload.
func runBody(bench string, timeoutMillis int) string {
	return fmt.Sprintf(`{"workload":%q,"timeout_ms":%d}`, bench, timeoutMillis)
}

// waitMetrics polls /metrics until cond holds on a snapshot.
func waitMetrics(t *testing.T, base, what string, cond func(MetricsSnapshot) bool) MetricsSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var snap MetricsSnapshot
	for time.Now().Before(deadline) {
		snap = fetchMetrics(t, base)
		if cond(snap) {
			return snap
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last snapshot admission=%+v tiers=%v", what, snap.Admission, snap.Tiers)
	return snap
}

// TestOverloadSheds429 saturates a one-worker, one-backlog server and
// checks the third distinct request is shed with 429 + Retry-After while
// the admitted requests still answer correctly once the pool frees up.
func TestOverloadSheds429(t *testing.T) {
	_, base, release := gatedServer(t, Config{Workers: 1, MaxBacklog: 1})

	var wg sync.WaitGroup
	results := make([]int, 2)
	for i, bench := range []string{"swim", "mgrid"} {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			resp, _ := postJSON(t, base+"/v1/run", runBody(bench, 0))
			results[i] = resp.StatusCode
		}(i, bench)
	}
	// Wait until one run occupies the slot and one waiter queues.
	waitMetrics(t, base, "one queued run", func(m MetricsSnapshot) bool {
		return m.Admission.Queued["run"] == 1
	})

	resp, body := postJSON(t, base+"/v1/run", runBody("applu", 0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded run status %d, want 429: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}

	release()
	wg.Wait()
	for i, code := range results {
		if code != http.StatusOK {
			t.Fatalf("admitted request %d answered %d, want 200", i, code)
		}
	}
	snap := fetchMetrics(t, base)
	if snap.Admission.Shed["run"] != 1 {
		t.Fatalf("shed counters = %v, want 1 shed run", snap.Admission.Shed)
	}
	if snap.Admission.MaxBacklog != 1 {
		t.Fatalf("max_backlog = %d, want 1", snap.Admission.MaxBacklog)
	}
}

// TestShedResponsesDoNotPoisonCache: a shed request must leave no trace —
// once load clears, the same cell computes and serves the same bytes an
// unloaded server would have produced.
func TestShedResponsesDoNotPoisonCache(t *testing.T) {
	ref, refTS := newTestServer(t, Config{})
	ref.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	})
	_, refBody := postJSON(t, refTS.URL+"/v1/run", runBody("applu", 0))

	_, base, release := gatedServer(t, Config{Workers: 1, MaxBacklog: 1})
	var wg sync.WaitGroup
	for _, bench := range []string{"swim", "mgrid"} {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			postJSON(t, base+"/v1/run", runBody(bench, 0))
		}(bench)
	}
	waitMetrics(t, base, "one queued run", func(m MetricsSnapshot) bool {
		return m.Admission.Queued["run"] == 1
	})
	if resp, _ := postJSON(t, base+"/v1/run", runBody("applu", 0)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	release()
	wg.Wait()

	resp, body := postJSON(t, base+"/v1/run", runBody("applu", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after shed: status %d: %s", resp.StatusCode, body)
	}
	if string(body) != string(refBody) {
		t.Fatalf("post-shed response differs from unloaded server:\n%s\nvs\n%s", body, refBody)
	}
}

// TestFairQueueingRatio drives the deficit round-robin directly: with both
// classes backlogged, grants must follow the 2-runs-per-sweep-cell weight.
func TestFairQueueingRatio(t *testing.T) {
	a := newAdmission(1, 100, 0, nil)
	if err := a.acquire(context.Background(), ClassRun); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []Class
	var wg sync.WaitGroup

	// Deterministic enqueue: add one waiter at a time, waiting for the
	// queue depth to reflect it before adding the next.
	add := func(c Class, wantDepth int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(context.Background(), c); err != nil {
				t.Errorf("acquire(%v): %v", c, err)
				return
			}
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
			a.release()
		}()
		deadline := time.Now().Add(time.Second)
		for {
			a.mu.Lock()
			n := a.queued
			a.mu.Unlock()
			if n == wantDepth {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d", wantDepth)
			}
			time.Sleep(time.Millisecond)
		}
	}
	depth := 0
	for i := 0; i < 4; i++ {
		depth++
		add(ClassRun, depth)
	}
	for i := 0; i < 2; i++ {
		depth++
		add(ClassSweep, depth)
	}

	a.release() // hand the held slot to the queue; grants cascade
	wg.Wait()

	want := []Class{ClassRun, ClassRun, ClassSweep, ClassRun, ClassRun, ClassSweep}
	if len(order) != len(want) {
		t.Fatalf("granted %d waiters, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// TestRetryAfterScalesWithQueue: the hint is the queue's expected drain
// time at the observed p50 run latency, clamped to [1, 60].
func TestRetryAfterScalesWithQueue(t *testing.T) {
	a := newAdmission(2, 1000, 0, func() time.Duration { return 3 * time.Second })
	a.mu.Lock()
	a.queued = 4
	got := a.retryAfterLocked()
	a.queued = 0
	a.mu.Unlock()
	if got != 9 { // (4/2 + 1) * 3s
		t.Fatalf("retryAfter = %d, want 9", got)
	}

	slow := newAdmission(1, 1000, 0, func() time.Duration { return 5 * time.Minute })
	slow.mu.Lock()
	got = slow.retryAfterLocked()
	slow.mu.Unlock()
	if got != 60 {
		t.Fatalf("retryAfter = %d, want clamp to 60", got)
	}

	fast := newAdmission(1, 1000, 0, nil)
	fast.mu.Lock()
	got = fast.retryAfterLocked()
	fast.mu.Unlock()
	if got != 1 {
		t.Fatalf("retryAfter = %d, want floor of 1", got)
	}
}

// TestEstimateBound: estimates shed instantly past their concurrency
// bound instead of queueing behind simulations.
func TestEstimateBound(t *testing.T) {
	a := newAdmission(1, 0, 2, nil)
	if err := a.acquireEstimate(); err != nil {
		t.Fatal(err)
	}
	if err := a.acquireEstimate(); err != nil {
		t.Fatal(err)
	}
	err := a.acquireEstimate()
	var oe *overloadError
	if !errors.As(err, &oe) {
		t.Fatalf("third estimate: err = %v, want overloadError", err)
	}
	a.releaseEstimate()
	if err := a.acquireEstimate(); err != nil {
		t.Fatalf("estimate after release: %v", err)
	}
	snap := a.snapshot()
	if snap.Shed["estimate"] != 1 || snap.Admitted["estimate"] != 3 {
		t.Fatalf("estimate counters = %+v", snap)
	}
}

// TestAbandonedQueuedFillIsDropped: with background fills disabled, a
// request that times out while its fill is still queued for admission must
// not run at all — the leader is cancelled, the abort is counted, and the
// cell stays uncached.
func TestAbandonedQueuedFillIsDropped(t *testing.T) {
	s, base, release := gatedServer(t, Config{Workers: 1, MaxBackgroundFills: -1})

	// Occupy the only slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, base+"/v1/run", runBody("swim", 0))
	}()
	waitMetrics(t, base, "slot occupied", func(m MetricsSnapshot) bool {
		return m.Runs.Started == 1
	})

	// This request queues behind it and times out.
	resp, _ := postJSON(t, base+"/v1/run", runBody("mgrid", 100))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}

	release()
	wg.Wait()
	snap := waitMetrics(t, base, "abandoned fill aborted", func(m MetricsSnapshot) bool {
		return m.Admission.BackgroundAborted == 1
	})
	if snap.Runs.Started != 1 {
		t.Fatalf("started %d runs, want 1 (abandoned fill must not execute)", snap.Runs.Started)
	}
	if snap.Admission.BackgroundFills != 0 || snap.Admission.MaxBackgroundFills != 0 {
		t.Fatalf("background gauge = %+v, want 0/0", snap.Admission)
	}
	s.Drain()
}

// TestBackgroundFillCompletes: with background credit available, a fill
// whose requester timed out still runs, fills the cache for the retry, and
// is visible in the background counters.
func TestBackgroundFillCompletes(t *testing.T) {
	s, base, release := gatedServer(t, Config{Workers: 1})

	resp, _ := postJSON(t, base+"/v1/run", runBody("swim", 100))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	waitMetrics(t, base, "fill went background", func(m MetricsSnapshot) bool {
		return m.Admission.BackgroundFills == 1
	})

	release()
	s.Drain()
	snap := waitMetrics(t, base, "background fill completed", func(m MetricsSnapshot) bool {
		return m.Admission.BackgroundCompleted == 1 && m.Admission.BackgroundFills == 0
	})
	if snap.Runs.Started != 1 || snap.Runs.Completed != 1 {
		t.Fatalf("runs = %+v, want exactly one", snap.Runs)
	}

	// The retry is a memory-tier hit off the background fill.
	resp, _ = postJSON(t, base+"/v1/run", runBody("swim", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d", resp.StatusCode)
	}
	if tier := resp.Header.Get("X-Selcache-Tier"); tier != TierMemory {
		t.Fatalf("retry served from %q, want %q", tier, TierMemory)
	}
	if snap := fetchMetrics(t, base); snap.Runs.Started != 1 {
		t.Fatalf("retry re-ran the cell (started=%d)", snap.Runs.Started)
	}
}

// TestPeerTierServes: a SetPeerFetch hit is served as the peer tier,
// cached locally, and skipped entirely for coordinator-forwarded requests.
func TestPeerTierServes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	})
	var peerCalls int64
	var mu sync.Mutex
	s.SetPeerFetch(func(spec Spec) (StoredResult, bool) {
		mu.Lock()
		peerCalls++
		mu.Unlock()
		if spec.Workload == "swim" {
			wl, _ := workloads.ByName("swim")
			return StoredResult{Spec: spec, Row: stubRow(wl)}, true
		}
		return StoredResult{}, false
	})

	// Peer hit: no local run, peer tier header, tier counter.
	resp, _ := postJSON(t, ts.URL+"/v1/run", runBody("swim", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if tier := resp.Header.Get("X-Selcache-Tier"); tier != TierPeer {
		t.Fatalf("tier header %q, want %q", tier, TierPeer)
	}
	if hit := resp.Header.Get("X-Selcache"); hit != "miss" {
		t.Fatalf("X-Selcache %q, want miss (peer is not a local hit)", hit)
	}
	snap := fetchMetrics(t, ts.URL)
	if snap.Tiers[TierPeer] != 1 || snap.Runs.Started != 0 {
		t.Fatalf("tiers = %v runs = %+v, want one peer serve and no local run", snap.Tiers, snap.Runs)
	}

	// The peer answer is now cached locally: memory tier, no second call.
	resp, _ = postJSON(t, ts.URL+"/v1/run", runBody("swim", 0))
	if tier := resp.Header.Get("X-Selcache-Tier"); tier != TierMemory {
		t.Fatalf("repeat tier %q, want %q", tier, TierMemory)
	}

	// Peer miss falls through to local computation.
	resp, _ = postJSON(t, ts.URL+"/v1/run", runBody("mgrid", 0))
	if tier := resp.Header.Get("X-Selcache-Tier"); tier != TierComputed {
		t.Fatalf("miss tier %q, want %q", tier, TierComputed)
	}

	// A forwarded request must not consult the peer tier: the receiver IS
	// the ring owner.
	mu.Lock()
	before := peerCalls
	mu.Unlock()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(runBody("applu", 0)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	fresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded status %d", fresp.StatusCode)
	}
	mu.Lock()
	after := peerCalls
	mu.Unlock()
	if after != before {
		t.Fatal("forwarded request consulted the peer tier")
	}
}

// TestTierCountersSumToServed: every served run counts under exactly one
// tier.
func TestTierCountersSumToServed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/run", runBody("swim", 0))
	}
	postJSON(t, ts.URL+"/v1/run", runBody("mgrid", 0))
	snap := fetchMetrics(t, ts.URL)
	if snap.Tiers[TierComputed] != 2 || snap.Tiers[TierMemory] != 2 {
		t.Fatalf("tiers = %v, want 2 computed + 2 memory", snap.Tiers)
	}
	var total uint64
	for _, n := range snap.Tiers {
		total += n
	}
	if total != 4 {
		t.Fatalf("tier total = %d, want 4 served requests", total)
	}
}

// TestAdmissionBoundsConcurrentRuns: admission is the only bound on
// concurrent simulations. With two workers and eight distinct concurrent
// runs, never more than two runRow calls are in progress, /metrics reports
// exactly those two as in flight with the other six queued, and every run
// answers once the gate opens.
func TestAdmissionBoundsConcurrentRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	gate := make(chan struct{})
	var live, peak atomic.Int64
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-gate
		live.Add(-1)
		return stubRow(w)
	})
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)

	const runs = 8
	codes := make([]int, runs)
	var wg sync.WaitGroup
	for i, wl := range workloads.All()[:runs] {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/run", runBody(bench, 0))
			codes[i] = resp.StatusCode
		}(i, wl.Name)
	}
	snap := waitMetrics(t, ts.URL, "two runs in flight, six queued", func(m MetricsSnapshot) bool {
		return m.Runs.InFlight == 2 && m.Admission.Queued["run"] == runs-2
	})
	if snap.Workers != 2 || live.Load() != 2 {
		t.Fatalf("workers = %d, runRow calls in progress = %d, want 2 and 2", snap.Workers, live.Load())
	}

	open()
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("run %d answered %d, want 200", i, code)
		}
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("peak concurrent runRow calls = %d, want 2", p)
	}
	if snap := fetchMetrics(t, ts.URL); snap.Runs.Started != runs || snap.Runs.Completed != runs || snap.Runs.InFlight != 0 {
		t.Fatalf("runs = %+v, want %d started and completed, none in flight", snap.Runs, runs)
	}
}
