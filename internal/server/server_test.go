package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/workloads"
)

// newTestServer returns a Server (2 workers, no persistence) and an
// httptest listener over its handler.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// stubRow fabricates a deterministic row so handler tests don't pay for
// real simulations.
func stubRow(w workloads.Workload) experiments.Row {
	row := experiments.Row{Benchmark: w.Name, Class: w.Class}
	for _, v := range core.Versions() {
		row.Cycles[v] = 1000 - uint64(v)*100
		row.Stats[v].Cycles = row.Cycles[v]
		row.Stats[v].Instructions = 5000
		if v != core.Base {
			row.Improv[v] = float64(v) * 10
		}
	}
	return row
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func fetchMetrics(t *testing.T, base string) MetricsSnapshot {
	t.Helper()
	resp, b := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	return snap
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Role: "worker"})
	resp, b := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d %q", resp.StatusCode, b)
	}
	var hr HealthResponse
	if err := json.Unmarshal(b, &hr); err != nil {
		t.Fatalf("healthz body %q: %v", b, err)
	}
	if hr.Status != "ok" || hr.Role != "worker" {
		t.Fatalf("healthz = %+v, want status ok / role worker", hr)
	}
	// Build identity must be populated (possibly "(devel)" / "unknown",
	// but never empty) so operators can tell worker versions apart.
	if hr.Version == "" || hr.GoVersion == "" {
		t.Fatalf("healthz build identity empty: %+v", hr)
	}
	if hr.UptimeSec < 0 {
		t.Fatalf("healthz uptime %g < 0", hr.UptimeSec)
	}

	// The default role is "standalone".
	_, ts2 := newTestServer(t, Config{})
	_, b2 := get(t, ts2.URL+"/healthz")
	var hr2 HealthResponse
	if err := json.Unmarshal(b2, &hr2); err != nil {
		t.Fatal(err)
	}
	if hr2.Role != "standalone" {
		t.Fatalf("default role = %q, want standalone", hr2.Role)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := get(t, ts.URL+"/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var infos []WorkloadInfo
	if err := json.Unmarshal(b, &infos); err != nil {
		t.Fatal(err)
	}
	all := workloads.All()
	if len(infos) != len(all) {
		t.Fatalf("%d workloads, want %d", len(infos), len(all))
	}
	for i, w := range all {
		if infos[i].Name != w.Name || infos[i].Class != w.Class.String() {
			t.Fatalf("entry %d = %+v, want %s/%s", i, infos[i], w.Name, w.Class)
		}
	}
}

func TestRunEndpointGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runRow = func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	}

	resp, b := postJSON(t, ts.URL+"/v1/run", `{"workload":"swim"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if h := resp.Header.Get("X-Selcache"); h != "miss" {
		t.Fatalf("first request X-Selcache = %q, want miss", h)
	}
	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Workload != "swim" || rr.Class != "regular" || rr.Config != "base" || rr.Mechanism != "bypass" {
		t.Fatalf("response identity = %+v", rr)
	}
	if len(rr.Versions) != core.NumVersions {
		t.Fatalf("%d versions, want %d", len(rr.Versions), core.NumVersions)
	}
	if !validKey(rr.Key) {
		t.Fatalf("malformed key %q", rr.Key)
	}

	// The repeat must be a result-cache hit with a byte-identical body,
	// verified through the /metrics counters.
	resp2, b2 := postJSON(t, ts.URL+"/v1/run", `{"workload":"swim"}`)
	if h := resp2.Header.Get("X-Selcache"); h != "hit" {
		t.Fatalf("repeat X-Selcache = %q, want hit", h)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("repeat body differs:\n%s\n%s", b, b2)
	}
	snap := fetchMetrics(t, ts.URL)
	if snap.ResultCache.Hits != 1 || snap.ResultCache.Misses != 1 {
		t.Fatalf("result cache counters = %+v, want 1 hit / 1 miss", snap.ResultCache)
	}
	if snap.Runs.Started != 1 || snap.Runs.Completed != 1 {
		t.Fatalf("run counters = %+v, want exactly one execution", snap.Runs)
	}
	if snap.Requests["run"] != 2 {
		t.Fatalf("request counters = %v", snap.Requests)
	}

	// The version filter renders a slice of the same cached result.
	respV, bV := postJSON(t, ts.URL+"/v1/run", `{"workload":"swim","version":"selective"}`)
	if respV.StatusCode != http.StatusOK {
		t.Fatalf("status %d", respV.StatusCode)
	}
	var rrV RunResponse
	if err := json.Unmarshal(bV, &rrV); err != nil {
		t.Fatal(err)
	}
	if len(rrV.Versions) != 1 || rrV.Versions[0].Version != "selective" {
		t.Fatalf("filtered versions = %+v", rrV.Versions)
	}
}

func TestRunEndpointErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runRow = func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	}
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantErr    string
	}{
		{"malformed json", `{"workload":`, http.StatusBadRequest, "malformed request body"},
		{"trailing data", `{"workload":"swim"} garbage`, http.StatusBadRequest, "malformed request body"},
		{"unknown field", `{"wrkload":"swim"}`, http.StatusBadRequest, "malformed request body"},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest, `unknown workload "nope"`},
		{"unknown config", `{"workload":"swim","config":"nope"}`, http.StatusBadRequest, `unknown config "nope"`},
		{"unknown mechanism", `{"workload":"swim","mechanism":"nope"}`, http.StatusBadRequest, `unknown mechanism "nope"`},
		{"unknown version", `{"workload":"swim","version":"nope"}`, http.StatusBadRequest, `unknown version "nope"`},
		{"empty body", ``, http.StatusBadRequest, "malformed request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postJSON(t, ts.URL+"/v1/run", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.wantStatus, b)
			}
			var er errorResponse
			if err := json.Unmarshal(b, &er); err != nil {
				t.Fatalf("non-JSON error body %q", b)
			}
			if !strings.Contains(er.Error, tc.wantErr) {
				t.Fatalf("error %q does not contain %q", er.Error, tc.wantErr)
			}
		})
	}

	// Wrong method on a POST route.
	resp, _ := get(t, ts.URL+"/v1/run")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run = %d, want 405", resp.StatusCode)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	release := make(chan struct{})
	s.runRow = func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		<-release
		return stubRow(w)
	}
	resp, b := postJSON(t, ts.URL+"/v1/run", `{"workload":"swim","timeout_ms":30}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, b)
	}
	var er errorResponse
	if err := json.Unmarshal(b, &er); err != nil || !strings.Contains(er.Error, "deadline exceeded") {
		t.Fatalf("error body %q", b)
	}

	// The abandoned run completes in the background and fills the cache:
	// the retry is a hit without a second execution.
	close(release)
	s.Drain()
	resp2, _ := postJSON(t, ts.URL+"/v1/run", `{"workload":"swim","timeout_ms":30}`)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Selcache") != "hit" {
		t.Fatalf("retry after drain = %d / %q, want 200 hit", resp2.StatusCode, resp2.Header.Get("X-Selcache"))
	}
	if snap := fetchMetrics(t, ts.URL); snap.Runs.Started != 1 {
		t.Fatalf("runs started = %d, want 1 (timeout must not re-execute)", snap.Runs.Started)
	}
}

// TestConcurrentIdenticalRequests is the acceptance scenario: N identical
// parallel requests trigger exactly one simulation and all get the same
// bytes back.
func TestConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	var executions atomic.Int64
	s.runRow = func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		executions.Add(1)
		time.Sleep(100 * time.Millisecond) // hold the run open so requests overlap
		return stubRow(w)
	}

	const clients = 10
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"workload":"compress"}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions for %d concurrent identical requests, want 1", n, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	snap := fetchMetrics(t, ts.URL)
	if snap.Runs.Started != 1 {
		t.Fatalf("metrics runs started = %d, want 1", snap.Runs.Started)
	}
	// Everyone except the leader either waited on the in-flight run or
	// hit the result cache (scheduling decides the split).
	if snap.Runs.Deduped+snap.ResultCache.Hits != clients-1 {
		t.Fatalf("deduped %d + cache hits %d != %d", snap.Runs.Deduped, snap.ResultCache.Hits, clients-1)
	}
}

// TestDrainCompletesInFlight proves the graceful-shutdown contract: a
// request in flight when the listener closes still completes, and Drain
// returns only after its result landed in the cache.
func TestDrainCompletesInFlight(t *testing.T) {
	s := New(Config{Workers: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	s.runRow = func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		close(started)
		<-release
		return stubRow(w)
	}
	ts := httptest.NewServer(s.Handler())

	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(`{"workload":"swim"}`))
		if err != nil {
			done <- result{}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: b}
	}()
	<-started

	// Close the listener while the request is mid-simulation, as the
	// SIGTERM handler does. httptest's Close blocks until outstanding
	// requests finish, so release the run from another goroutine.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	ts.Close()

	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", res.status)
	}
	s.Drain()

	// The result survived shutdown: look it up straight on the handler.
	var rr RunResponse
	if err := json.Unmarshal(res.body, &rr); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/results/"+rr.Key, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-drain result lookup = %d, want 200", rec.Code)
	}
}

func TestResultsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runRow = func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	}
	_, runBody := postJSON(t, ts.URL+"/v1/run", `{"workload":"adi"}`)
	var rr RunResponse
	if err := json.Unmarshal(runBody, &rr); err != nil {
		t.Fatal(err)
	}

	resp, b := get(t, ts.URL+"/v1/results/"+rr.Key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(b, runBody) {
		t.Fatalf("results body differs from run body:\n%s\n%s", b, runBody)
	}

	if resp, _ := get(t, ts.URL+"/v1/results/"+strings.Repeat("0", 64)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/results/not-a-key"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key = %d, want 400", resp.StatusCode)
	}
}

func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	var executions atomic.Int64
	s.runRow = func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		executions.Add(1)
		return stubRow(w)
	}

	resp, b := postJSON(t, ts.URL+"/v1/sweep",
		`{"workloads":["swim","compress"],"configs":["base","larger-l1"],"mechanisms":["bypass"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var sr SweepResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Sweeps) != 2 {
		t.Fatalf("%d sweeps, want 2", len(sr.Sweeps))
	}
	for i, sw := range sr.Sweeps {
		if len(sw.Rows) != 2 {
			t.Fatalf("sweep %d has %d rows", i, len(sw.Rows))
		}
		if sw.Mechanism != "bypass" {
			t.Fatalf("sweep %d mechanism %q", i, sw.Mechanism)
		}
		// Stub improvements are 0/10/20/30/40 for every workload, so the
		// average per version must match exactly.
		for v, want := range map[string]float64{"base": 0, "pure-hardware": 10, "pure-software": 20, "combined": 30, "selective": 40} {
			if got := sw.AvgImprovementPct[v]; got != want {
				t.Fatalf("sweep %d avg[%s] = %g, want %g", i, v, got, want)
			}
		}
		// One regular (swim) and one irregular (compress) workload.
		if _, ok := sw.ClassAvgImprovementPct["regular"]; !ok {
			t.Fatalf("sweep %d missing regular class avg", i)
		}
		if _, ok := sw.ClassAvgImprovementPct["mixed"]; ok {
			t.Fatalf("sweep %d has mixed class avg with no mixed workloads", i)
		}
	}
	if n := executions.Load(); n != 4 {
		t.Fatalf("%d executions, want 4 (2 workloads × 2 configs)", n)
	}

	// A second sweep over a subset is served from the result cache.
	postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["swim"],"configs":["base"],"mechanisms":["bypass"]}`)
	if n := executions.Load(); n != 4 {
		t.Fatalf("cached sweep re-executed (%d executions)", n)
	}

	// Validation failures surface before any simulation.
	resp, b = postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["nope"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload sweep = %d (%s)", resp.StatusCode, b)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", `{"configs":["nope"],"workloads":["swim"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown config sweep = %d", resp.StatusCode)
	}
}

// TestRemoteHook pins the scale-out seam: an installed RemoteFunc is
// offered every cell first, its result is cached like a local run, a
// failure falls back to the local engine with a log line, and ErrNotRouted
// falls back silently.
func TestRemoteHook(t *testing.T) {
	var log lockedLog
	s, ts := newTestServer(t, Config{Log: &log})
	var localRuns, remoteCalls atomic.Int64
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		localRuns.Add(1)
		return stubRow(w)
	})
	remoteErr := error(nil)
	s.SetRemote(func(spec Spec) (StoredResult, error) {
		remoteCalls.Add(1)
		if remoteErr != nil {
			return StoredResult{}, remoteErr
		}
		w, _ := workloads.ByName(spec.Workload)
		return StoredResult{Spec: spec, Row: stubRow(w)}, nil
	})

	// Remote success: no local execution, result lands in the cache.
	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"workload":"swim"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if remoteCalls.Load() != 1 || localRuns.Load() != 0 {
		t.Fatalf("remote=%d local=%d, want 1/0", remoteCalls.Load(), localRuns.Load())
	}
	resp, _ = postJSON(t, ts.URL+"/v1/run", `{"workload":"swim"}`)
	if resp.Header.Get("X-Selcache") != "hit" {
		t.Fatal("remote result was not cached")
	}

	// Remote failure: local fallback, and the failure is logged.
	remoteErr = errors.New("worker exploded")
	postJSON(t, ts.URL+"/v1/run", `{"workload":"compress"}`)
	if remoteCalls.Load() != 2 || localRuns.Load() != 1 {
		t.Fatalf("remote=%d local=%d, want 2/1", remoteCalls.Load(), localRuns.Load())
	}
	if !strings.Contains(log.String(), "worker exploded") {
		t.Fatalf("fallback not logged: %q", log.String())
	}

	// ErrNotRouted: silent local fallback.
	remoteErr = ErrNotRouted
	postJSON(t, ts.URL+"/v1/run", `{"workload":"adi"}`)
	if localRuns.Load() != 2 {
		t.Fatalf("local=%d, want 2", localRuns.Load())
	}
	if strings.Contains(log.String(), "not routed") {
		t.Fatalf("ErrNotRouted was logged as a failure: %q", log.String())
	}

	// A forwarded request must never re-enter the remote hook.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"workload":"tpc-c"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "1")
	fresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded run status %d", fresp.StatusCode)
	}
	if remoteCalls.Load() != 3 || localRuns.Load() != 3 {
		t.Fatalf("remote=%d local=%d after forwarded request, want 3/3", remoteCalls.Load(), localRuns.Load())
	}
}

// lockedLog is a mutex-guarded strings.Builder for server logs written
// from background fill goroutines.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunMatchesBatch is the fidelity acceptance test: for a real
// workload, the daemon's response carries exactly the statistics the
// batch driver produces for the same configuration.
func TestRunMatchesBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	name := "compress"
	resp, b := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"workload":%q}`, name))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}

	w, _ := workloads.ByName(name)
	batch := experiments.RunRow(w, core.DefaultOptions(), nil)
	assertRowMatches(t, rr, batch)
}

// TestAllWorkloadsMatchBatch extends the fidelity check to the entire
// 13-workload × 5-version matrix (the PR's acceptance criterion). The
// full matrix costs two sweeps' worth of simulation, so -short runs
// spot-check a single workload via TestRunMatchesBatch instead.
func TestAllWorkloadsMatchBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full 13×5 fidelity matrix skipped in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 0})

	o := core.DefaultOptions()
	batch := experiments.RunSweep(o, nil, experiments.Plan{Cache: experiments.NewTraceCache("")})
	for _, row := range batch.Rows {
		resp, b := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(`{"workload":%q}`, row.Benchmark))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", row.Benchmark, resp.StatusCode)
		}
		var rr RunResponse
		if err := json.Unmarshal(b, &rr); err != nil {
			t.Fatal(err)
		}
		assertRowMatches(t, rr, row)
	}
}

// assertRowMatches compares a served response against a batch row
// byte-for-byte through JSON: the full RunStats of every version must be
// identical once the documented WallNanos nondeterminism is zeroed.
func assertRowMatches(t *testing.T, rr RunResponse, batch experiments.Row) {
	t.Helper()
	if len(rr.Versions) != core.NumVersions {
		t.Fatalf("%s: %d versions", batch.Benchmark, len(rr.Versions))
	}
	for _, v := range core.Versions() {
		vr := rr.Versions[v]
		if vr.Cycles != batch.Cycles[v] {
			t.Errorf("%s/%s: cycles %d != batch %d", batch.Benchmark, v, vr.Cycles, batch.Cycles[v])
		}
		if vr.ImprovementPct != batch.Improv[v] {
			t.Errorf("%s/%s: improvement %g != batch %g", batch.Benchmark, v, vr.ImprovementPct, batch.Improv[v])
		}
		want := batch.Stats[v]
		want.WallNanos = 0
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(vr.Stats)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s/%s: stats diverge\n got %s\nwant %s", batch.Benchmark, v, gotJSON, wantJSON)
		}
	}
}
