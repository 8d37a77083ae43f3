package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/server"
	"selcache/internal/workloads"
)

// stubRow fabricates the same deterministic row as the server package's
// test stub (white-box there, so it cannot be imported): fault-injection
// tests drive hundreds of cells without paying for real simulations, and
// because coordinator-local fallback uses the same stub, byte-identity
// assertions hold no matter which node ends up running a cell.
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

// lockedBuf is a mutex-guarded log sink (coordinator and server log from
// multiple goroutines).
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// testNode is one stub-backed selcached node. hook, when non-nil, runs
// before each fabricated row — tests wedge or slow specific cells with it.
type testNode struct {
	srv  *server.Server
	ts   *httptest.Server
	runs atomic.Int64
}

func newTestNode(t *testing.T, role string, log io.Writer, hook func(workloads.Workload)) *testNode {
	t.Helper()
	n := &testNode{}
	n.srv = server.New(server.Config{Workers: 4, Role: role, Log: log})
	n.srv.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		if hook != nil {
			hook(w)
		}
		n.runs.Add(1)
		return stubRow(w)
	})
	n.ts = httptest.NewServer(n.srv.Handler())
	t.Cleanup(func() {
		n.ts.Close()
		n.srv.Drain()
	})
	return n
}

// fastConfig shrinks every interval so fault-injection tests converge in
// milliseconds. Hedging is disabled by default; tests that want it set
// HedgeAfter explicitly.
func fastConfig() Config {
	return Config{
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		FailThreshold:  2,
		AttemptTimeout: 5 * time.Second,
		MaxAttempts:    3,
		BackoffBase:    5 * time.Millisecond,
		BackoffCap:     20 * time.Millisecond,
		HedgeAfter:     -1,
	}
}

// coordNode is a coordinator-mode node: a stub-backed server with a
// Coordinator wired in as its remote hook and the cluster endpoints
// mounted on its mux.
type coordNode struct {
	*testNode
	coord *Coordinator
	log   *lockedBuf
}

func newCoordNode(t *testing.T, cfg Config) *coordNode {
	t.Helper()
	log := &lockedBuf{}
	n := newTestNode(t, "coordinator", log, nil)
	cfg.Self = n.ts.URL
	cfg.Log = log
	c := New(cfg)
	t.Cleanup(c.Close)
	n.srv.SetRemote(c.Execute)
	c.Register(n.srv.Mux())
	return &coordNode{testNode: n, coord: c, log: log}
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

// mustJoin registers a worker through the HTTP join endpoint.
func mustJoin(t *testing.T, coordinatorURL, workerURL string) {
	t.Helper()
	resp, b := postJSON(t, coordinatorURL+"/v1/cluster/join", fmt.Sprintf(`{"addr":%q}`, workerURL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join %s: status %d: %s", workerURL, resp.StatusCode, b)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// baseSweep is the 13-cell single-config sweep used throughout.
const baseSweep = `{"configs":["base"],"mechanisms":["bypass"]}`

func TestJoinValidation(t *testing.T) {
	co := newCoordNode(t, fastConfig())
	cases := []struct {
		name    string
		body    string
		wantErr string
	}{
		{"malformed json", `{"addr":`, "malformed join body"},
		{"unknown field", `{"adr":"http://x"}`, "malformed join body"},
		{"missing addr", `{}`, "missing addr"},
		{"relative addr", `{"addr":"localhost:9"}`, "absolute http(s) URL"},
		{"bad scheme", `{"addr":"ftp://host:9"}`, "absolute http(s) URL"},
		{"self join", fmt.Sprintf(`{"addr":%q}`, co.ts.URL), "refusing self-join"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postJSON(t, co.ts.URL+"/v1/cluster/join", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, b)
			}
			if !strings.Contains(string(b), tc.wantErr) {
				t.Fatalf("body %q does not mention %q", b, tc.wantErr)
			}
		})
	}
	if st := co.coord.Status(); st.TotalWorkers != 0 {
		t.Fatalf("invalid joins registered %d workers", st.TotalWorkers)
	}
}

// TestSweepShardsAcrossWorkers is the tentpole's happy path: every cell of
// a sweep runs on a worker (none on the coordinator), the merged response
// is byte-identical to a single-node server's, and a repeat sweep is
// served entirely from the coordinator's result cache.
func TestSweepShardsAcrossWorkers(t *testing.T) {
	ref := newTestNode(t, "", nil, nil)
	_, refBody := postJSON(t, ref.ts.URL+"/v1/sweep", baseSweep)

	co := newCoordNode(t, fastConfig())
	w1 := newTestNode(t, "worker", nil, nil)
	w2 := newTestNode(t, "worker", nil, nil)
	mustJoin(t, co.ts.URL, w1.ts.URL)
	mustJoin(t, co.ts.URL, w2.ts.URL)

	resp, body := postJSON(t, co.ts.URL+"/v1/sweep", baseSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, refBody) {
		t.Fatalf("clustered sweep differs from single-node:\n%s\nvs\n%s", body, refBody)
	}
	if n := co.runs.Load(); n != 0 {
		t.Fatalf("coordinator ran %d cells locally, want 0", n)
	}
	if n := w1.runs.Load() + w2.runs.Load(); n != 13 {
		t.Fatalf("workers ran %d cells, want 13", n)
	}
	st := co.coord.Status()
	if st.Stats.RemoteCells != 13 || st.Stats.RemoteErrors != 0 {
		t.Fatalf("stats = %+v, want 13 remote cells and no errors", st.Stats)
	}

	// Repeat: coordinator result-cache hits, no new runs anywhere.
	_, body2 := postJSON(t, co.ts.URL+"/v1/sweep", baseSweep)
	if !bytes.Equal(body2, refBody) {
		t.Fatal("repeat sweep not byte-identical")
	}
	if n := w1.runs.Load() + w2.runs.Load(); n != 13 {
		t.Fatalf("repeat sweep re-ran cells (total %d)", n)
	}
}

// TestNoWorkersRunsLocally: a coordinator with zero workers degrades to a
// plain single-node server — same bytes, no fallback noise in the stats.
func TestNoWorkersRunsLocally(t *testing.T) {
	ref := newTestNode(t, "", nil, nil)
	_, refBody := postJSON(t, ref.ts.URL+"/v1/sweep", baseSweep)

	co := newCoordNode(t, fastConfig())
	resp, body := postJSON(t, co.ts.URL+"/v1/sweep", baseSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, refBody) {
		t.Fatal("worker-less clustered sweep differs from single-node")
	}
	if n := co.runs.Load(); n != 13 {
		t.Fatalf("coordinator ran %d cells, want all 13", n)
	}
	if st := co.coord.Status(); st.Stats.LocalFallbacks != 0 {
		t.Fatalf("never-clustered coordinator counted %d fallbacks", st.Stats.LocalFallbacks)
	}
	if strings.Contains(co.log.String(), "remote execution failed") {
		t.Fatalf("worker-less fallback logged as a failure:\n%s", co.log.String())
	}
}

// TestForwardedRunKeepsEverySpecField: a cell with non-default policy,
// way memo and energy knobs is forwarded whole, so the worker computes and
// caches the same key the coordinator asked for — served from the remote
// tier, with no remote error and no local re-run.
func TestForwardedRunKeepsEverySpecField(t *testing.T) {
	co := newCoordNode(t, fastConfig())
	w := newTestNode(t, "worker", nil, nil)
	mustJoin(t, co.ts.URL, w.ts.URL)

	resp, body := postJSON(t, co.ts.URL+"/v1/run", `{"workload":"swim","policy":"ehc","waymemo":true,"energy":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}
	if tier := resp.Header.Get("X-Selcache-Tier"); tier != server.TierRemote {
		t.Fatalf("tier %q, want %q", tier, server.TierRemote)
	}
	st := co.coord.Status().Stats
	if st.RemoteErrors != 0 || st.LocalFallbacks != 0 || st.RemoteCells != 1 {
		t.Fatalf("stats = %+v, want one remote cell, no errors, no local fallback", st)
	}
	if co.runs.Load() != 0 || w.runs.Load() != 1 {
		t.Fatalf("coordinator ran %d cells and worker %d, want 0 and 1", co.runs.Load(), w.runs.Load())
	}
	var rr server.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	got, err := http.Get(w.ts.URL + "/v1/results/" + rr.Key)
	if err != nil {
		t.Fatal(err)
	}
	got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("worker has no result under the coordinator's key: status %d", got.StatusCode)
	}
}

// TestWorkerKilledMidSweep kills the worker owning at least one in-flight
// cell while a sweep is running; retries steer its shard to the survivor
// and the merged output is still byte-identical.
func TestWorkerKilledMidSweep(t *testing.T) {
	ref := newTestNode(t, "", nil, nil)
	_, refBody := postJSON(t, ref.ts.URL+"/v1/sweep", baseSweep)

	co := newCoordNode(t, fastConfig())
	slow := func(workloads.Workload) { time.Sleep(50 * time.Millisecond) }
	w1 := newTestNode(t, "worker", nil, slow)
	w2 := newTestNode(t, "worker", nil, slow)
	mustJoin(t, co.ts.URL, w1.ts.URL)
	mustJoin(t, co.ts.URL, w2.ts.URL)

	// Kill the worker that owns the swim cell, so the victim is guaranteed
	// to have live shard assignments when it dies.
	victim := w1
	for _, e := range co.coord.ShardMap() {
		if e.Workload == "swim" && e.Config == "base" && e.Mechanism == "bypass" {
			if e.Worker == w2.ts.URL {
				victim = w2
			}
		}
	}

	done := make(chan []byte, 1)
	go func() {
		_, body := postJSON(t, co.ts.URL+"/v1/sweep", baseSweep)
		done <- body
	}()
	time.Sleep(20 * time.Millisecond) // all 13 cells are in flight (stub takes 50ms)
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	select {
	case body := <-done:
		if !bytes.Equal(body, refBody) {
			t.Fatalf("sweep after worker kill differs from single-node:\n%s", body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not complete after worker kill")
	}
	st := co.coord.Status()
	if st.Stats.Retries == 0 {
		t.Fatalf("worker kill produced no retries: %+v", st.Stats)
	}
}

// flakyProxy forwards to a worker while deterministically injecting
// faults: every 4th request is dropped mid-flight (connection abort),
// every 3rd of the rest answers 500, every 5th is delayed. Counter-based
// rather than random so failures hit probes and cells alike, repeatably.
type flakyProxy struct {
	n  atomic.Int64
	rp *httputil.ReverseProxy
}

func newFlakyProxy(t *testing.T, target string) *httptest.Server {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{rp: httputil.NewSingleHostReverseProxy(u)}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return ts
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k := p.n.Add(1)
	switch {
	case k%4 == 0:
		panic(http.ErrAbortHandler) // client sees a dropped connection
	case k%3 == 0:
		http.Error(w, "injected flaky failure", http.StatusInternalServerError)
		return
	case k%5 == 0:
		time.Sleep(20 * time.Millisecond)
	}
	p.rp.ServeHTTP(w, r)
}

// TestFlakyWorkerFullMatrix pushes the full 156-cell experiment matrix
// through a cluster where one worker sits behind a fault-injecting proxy.
// Drops, 500s, and delays force retries, possibly evictions and
// readmissions — and the output must still be byte-identical.
func TestFlakyWorkerFullMatrix(t *testing.T) {
	ref := newTestNode(t, "", nil, nil)
	_, refBody := postJSON(t, ref.ts.URL+"/v1/sweep", `{}`)

	co := newCoordNode(t, fastConfig())
	w1 := newTestNode(t, "worker", nil, nil)
	w2 := newTestNode(t, "worker", nil, nil)
	proxy := newFlakyProxy(t, w2.ts.URL)
	mustJoin(t, co.ts.URL, w1.ts.URL)
	mustJoin(t, co.ts.URL, proxy.URL)

	resp, body := postJSON(t, co.ts.URL+"/v1/sweep", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, refBody) {
		t.Fatal("flaky-cluster full-matrix sweep differs from single-node")
	}
	st := co.coord.Status()
	if st.Stats.Retries == 0 || st.Stats.RemoteErrors == 0 {
		t.Fatalf("fault injection produced no retries: %+v", st.Stats)
	}
	t.Logf("flaky matrix: %+v", st.Stats)
}

// TestHedgedRequest wedges the worker owning the swim cell; the hedge
// fires after HedgeAfter and the other worker's answer wins.
func TestHedgedRequest(t *testing.T) {
	cfg := fastConfig()
	cfg.HedgeAfter = 60 * time.Millisecond
	co := newCoordNode(t, cfg)

	release := make(chan struct{})
	var w1Wedged, w2Wedged atomic.Bool
	wedge := func(flag *atomic.Bool) func(workloads.Workload) {
		return func(wl workloads.Workload) {
			if flag.Load() && wl.Name == "swim" {
				<-release
			}
		}
	}
	w1 := newTestNode(t, "worker", nil, wedge(&w1Wedged))
	w2 := newTestNode(t, "worker", nil, wedge(&w2Wedged))
	// Runs before the node cleanups (LIFO), so wedged handlers unblock
	// before httptest.Close and Drain wait on them.
	t.Cleanup(func() { close(release) })
	mustJoin(t, co.ts.URL, w1.ts.URL)
	mustJoin(t, co.ts.URL, w2.ts.URL)

	for _, e := range co.coord.ShardMap() {
		if e.Workload == "swim" && e.Config == "base" && e.Mechanism == "bypass" {
			if e.Worker == w1.ts.URL {
				w1Wedged.Store(true)
			} else {
				w2Wedged.Store(true)
			}
		}
	}

	resp, body := postJSON(t, co.ts.URL+"/v1/run", `{"workload":"swim"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}
	st := co.coord.Status()
	if st.Stats.Hedges != 1 || st.Stats.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want exactly one winning hedge", st.Stats)
	}
	if n := co.runs.Load(); n != 0 {
		t.Fatalf("coordinator ran %d cells locally; hedge should have answered", n)
	}
}

// TestEvictionAndReadmission drives a worker through down-and-back-up via
// an unhealthy gate in front of it, checking the membership transitions,
// the local-fallback routing while down, and the stats trail.
func TestEvictionAndReadmission(t *testing.T) {
	co := newCoordNode(t, fastConfig())
	w := newTestNode(t, "worker", nil, nil)
	var unhealthy atomic.Bool
	gate := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if unhealthy.Load() {
			http.Error(rw, "injected outage", http.StatusServiceUnavailable)
			return
		}
		w.srv.Handler().ServeHTTP(rw, r)
	}))
	t.Cleanup(gate.Close)
	mustJoin(t, co.ts.URL, gate.URL)

	// Healthy: cells route remotely, and a probe fills in build identity.
	postJSON(t, co.ts.URL+"/v1/run", `{"workload":"swim"}`)
	if w.runs.Load() != 1 {
		t.Fatalf("healthy worker ran %d cells, want 1", w.runs.Load())
	}
	waitFor(t, 5*time.Second, "probe to record version", func() bool {
		st := co.coord.Status()
		return len(st.Workers) == 1 && st.Workers[0].Version != ""
	})

	unhealthy.Store(true)
	waitFor(t, 5*time.Second, "eviction", func() bool {
		st := co.coord.Status()
		return st.LiveWorkers == 0 && st.Stats.Evictions >= 1
	})
	if !strings.Contains(co.log.String(), "evicted") {
		t.Fatalf("eviction not logged:\n%s", co.log.String())
	}

	// Down: the cell runs locally and is counted as a fallback.
	postJSON(t, co.ts.URL+"/v1/run", `{"workload":"compress"}`)
	if co.runs.Load() != 1 {
		t.Fatalf("coordinator ran %d cells during outage, want 1", co.runs.Load())
	}
	if st := co.coord.Status(); st.Stats.LocalFallbacks < 1 {
		t.Fatalf("outage fallback not counted: %+v", st.Stats)
	}

	unhealthy.Store(false)
	waitFor(t, 5*time.Second, "readmission", func() bool {
		st := co.coord.Status()
		return st.LiveWorkers == 1 && st.Stats.Readmissions >= 1
	})

	// Back up: remote routing resumes.
	postJSON(t, co.ts.URL+"/v1/run", `{"workload":"applu"}`)
	if w.runs.Load() != 2 {
		t.Fatalf("readmitted worker ran %d cells, want 2", w.runs.Load())
	}
}

// TestAnnounce runs the worker-side heartbeat loop against a live
// coordinator and checks registration plus the one-shot transition log.
func TestAnnounce(t *testing.T) {
	co := newCoordNode(t, fastConfig())
	w := newTestNode(t, "worker", nil, nil)

	log := &lockedBuf{}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		Announce(stop, co.ts.URL+"/", w.ts.URL, 20*time.Millisecond, log)
		close(done)
	}()
	waitFor(t, 5*time.Second, "announce to register", func() bool {
		return co.coord.Status().LiveWorkers == 1
	})
	waitFor(t, 5*time.Second, "join transition log", func() bool {
		return strings.Contains(log.String(), "joined cluster at")
	})
	if n := strings.Count(log.String(), "joined cluster at"); n != 1 {
		t.Fatalf("join logged %d times, want once:\n%s", n, log.String())
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Announce did not stop")
	}
}

// TestVersionSkewRejected: a worker whose Spec encoding disagrees (it
// echoes a different content-address) must be rejected loudly, and the
// coordinator must produce the correct answer locally anyway.
func TestVersionSkewRejected(t *testing.T) {
	skewed := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(server.RunResponse{Key: strings.Repeat("a", 64)})
	}))
	t.Cleanup(skewed.Close)

	ref := newTestNode(t, "", nil, nil)
	_, refBody := postJSON(t, ref.ts.URL+"/v1/run", `{"workload":"swim"}`)

	co := newCoordNode(t, fastConfig())
	mustJoin(t, co.ts.URL, skewed.URL)
	resp, body := postJSON(t, co.ts.URL+"/v1/run", `{"workload":"swim"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, refBody) {
		t.Fatal("local fallback after version skew not byte-identical")
	}
	if co.runs.Load() != 1 {
		t.Fatalf("coordinator ran %d cells, want 1 (local fallback)", co.runs.Load())
	}
	if !strings.Contains(co.log.String(), "version skew") {
		t.Fatalf("version skew not logged:\n%s", co.log.String())
	}
	if st := co.coord.Status(); st.Stats.LocalFallbacks != 1 {
		t.Fatalf("stats = %+v, want one local fallback", st.Stats)
	}
}

func TestShardMapEndpoint(t *testing.T) {
	co := newCoordNode(t, fastConfig())
	w := newTestNode(t, "worker", nil, nil)
	mustJoin(t, co.ts.URL, w.ts.URL)

	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Get(co.ts.URL + "/v1/cluster/shards")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shards status %d: %s", resp.StatusCode, body)
	}
	var entries []ShardEntry
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	// 6 machine configurations × 2 mechanisms × 13 workloads.
	if len(entries) != 156 {
		t.Fatalf("shard map has %d entries, want 156", len(entries))
	}
	for _, e := range entries {
		if e.Worker != w.ts.URL {
			t.Fatalf("cell %s/%s/%s routed to %q, want the only worker", e.Workload, e.Config, e.Mechanism, e.Worker)
		}
		if len(e.Key) != 64 {
			t.Fatalf("malformed shard key %q", e.Key)
		}
	}
}

func TestBackoffShape(t *testing.T) {
	base, cap := 50*time.Millisecond, 2*time.Second
	want := []time.Duration{50, 50, 100, 200, 400, 800, 1600, 2000, 2000}
	for i, w := range want {
		if got := backoffFor(i, base, cap); got != w*time.Millisecond {
			t.Fatalf("backoffFor(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	for i := 0; i < 100; i++ {
		d := jittered(100 * time.Millisecond)
		if d < 50*time.Millisecond || d >= 100*time.Millisecond {
			t.Fatalf("jittered(100ms) = %v, want [50ms, 100ms)", d)
		}
	}
}

func TestRowFromResponse(t *testing.T) {
	spec, _, err := server.ResolveSpec(server.RunRequest{Workload: "swim"})
	if err != nil {
		t.Fatal(err)
	}
	key := spec.Key()
	good := server.StoredResult{Spec: spec, Row: stubRow(mustWorkload(t, "swim"))}.Response("")

	t.Run("round trip", func(t *testing.T) {
		row, err := rowFromResponse(spec, key, good)
		if err != nil {
			t.Fatal(err)
		}
		want := stubRow(mustWorkload(t, "swim"))
		if row != want {
			t.Fatalf("round-tripped row differs:\n%+v\nvs\n%+v", row, want)
		}
	})
	t.Run("wrong key", func(t *testing.T) {
		bad := good
		bad.Key = strings.Repeat("b", 64)
		if _, err := rowFromResponse(spec, key, bad); err == nil || !strings.Contains(err.Error(), "version skew") {
			t.Fatalf("err = %v, want version skew", err)
		}
	})
	t.Run("missing versions", func(t *testing.T) {
		bad := good
		bad.Versions = bad.Versions[:2]
		if _, err := rowFromResponse(spec, key, bad); err == nil || !strings.Contains(err.Error(), "versions") {
			t.Fatalf("err = %v, want version-count complaint", err)
		}
	})
	t.Run("reordered versions", func(t *testing.T) {
		bad := good
		bad.Versions = append([]server.VersionResult(nil), good.Versions...)
		bad.Versions[0], bad.Versions[1] = bad.Versions[1], bad.Versions[0]
		if _, err := rowFromResponse(spec, key, bad); err == nil {
			t.Fatal("reordered versions accepted")
		}
	})
}

func mustWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w
}
