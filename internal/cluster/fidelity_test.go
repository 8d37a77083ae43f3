package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/server"
	"selcache/internal/workloads"
)

// realNode boots a selcached node on the real simulation engine (no stub):
// the fidelity tests must prove the actual product path, not a fabricated
// one. Nodes handed the same trace cache record each stream once between
// them; every node still simulates its own cells.
func realNode(t *testing.T, role string, traces *experiments.TraceCache) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, Role: role})
	srv.SetRunRow(func(w workloads.Workload, o core.Options, _ *experiments.TraceCache) experiments.Row {
		return experiments.RunRow(w, o, traces)
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts
}

// TestClusterFidelityRealSim is the acceptance test for the tentpole: a
// clustered sweep over the paper's full 13-workload matrix (every workload
// × all 5 versions), with one worker behind a fault-injecting proxy and
// the other killed mid-sweep, must produce output byte-identical to a
// single-node server. -short trims the matrix to two workloads.
func TestClusterFidelityRealSim(t *testing.T) {
	names := []string{"compress", "swim"}
	if !testing.Short() {
		names = names[:0]
		for _, wl := range workloads.All() {
			names = append(names, wl.Name)
		}
	}
	body := fmt.Sprintf(`{"workloads":["%s"],"configs":["base"],"mechanisms":["bypass"]}`,
		strings.Join(names, `","`))

	traces := experiments.NewTraceCache("")
	_, refTS := realNode(t, "", traces)
	refResp, refBody := postJSON(t, refTS.URL+"/v1/sweep", body)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep status %d: %s", refResp.StatusCode, refBody)
	}

	// Cluster: coordinator + two real workers, one flaky, one doomed.
	cfg := fastConfig()
	cfg.AttemptTimeout = 2 * time.Minute // real cold-cache cells take real time
	log := &lockedBuf{}
	cfg.Log = log
	coSrv, coTS := realNode(t, "coordinator", traces)
	cfg.Self = coTS.URL
	coord := New(cfg)
	t.Cleanup(coord.Close)
	coSrv.SetRemote(coord.Execute)
	coord.Register(coSrv.Mux())

	_, flakyTS := realNode(t, "worker", traces)
	proxy := newFlakyProxy(t, flakyTS.URL)
	_, doomedTS := realNode(t, "worker", traces)
	mustJoin(t, coTS.URL, proxy.URL)
	mustJoin(t, coTS.URL, doomedTS.URL)

	done := make(chan []byte, 1)
	status := make(chan int, 1)
	go func() {
		resp, b := postJSON(t, coTS.URL+"/v1/sweep", body)
		status <- resp.StatusCode
		done <- b
	}()
	// Kill the second worker while cells are in flight; its shard reroutes
	// to the flaky worker (or falls back to the coordinator's engine).
	time.Sleep(300 * time.Millisecond)
	doomedTS.CloseClientConnections()
	doomedTS.Close()

	select {
	case b := <-done:
		if code := <-status; code != http.StatusOK {
			t.Fatalf("clustered sweep status %d: %s", code, b)
		}
		if !bytes.Equal(b, refBody) {
			t.Fatalf("clustered real-sim sweep differs from single-node (%d vs %d bytes)", len(b), len(refBody))
		}
	case <-time.After(5 * time.Minute):
		t.Fatal("clustered sweep did not complete")
	}
	t.Logf("fidelity under faults: %+v\n%s", coord.Status().Stats, log.String())
}
