package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/workloads"
	"selcache/internal/workloads/synth"
)

func TestEstimateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// An analyzable benchmark: exact verdict, full variant list, a best pick.
	resp, b := postJSON(t, ts.URL+"/v1/estimate", `{"workload":"swim","config":"base"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var er EstimateResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if er.Verdict != "exact" || er.Workload != "swim" || er.Config != "base" {
		t.Fatalf("estimate = %+v, want exact swim/base", er)
	}
	if len(er.Variants) != core.NumVersions+1 {
		t.Fatalf("%d variants, want %d", len(er.Variants), core.NumVersions+1)
	}
	if er.Best == "" {
		t.Fatal("no best variant for an exact estimate")
	}

	// The config default is "base" and the body is deterministic.
	_, b2 := postJSON(t, ts.URL+"/v1/estimate", `{"workload":"swim"}`)
	if !bytes.Equal(b, b2) {
		t.Fatal("identical estimate requests produced different bodies")
	}

	// A pointer-chasing benchmark: declined with a reason, no ranking.
	resp, b = postJSON(t, ts.URL+"/v1/estimate", `{"workload":"perl"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var der EstimateResponse
	if err := json.Unmarshal(b, &der); err != nil {
		t.Fatal(err)
	}
	if der.Verdict != "declined" || der.Reason == "" || der.Best != "" {
		t.Fatalf("perl estimate = verdict %q reason %q best %q, want declined/reason/no-best",
			der.Verdict, der.Reason, der.Best)
	}

	// A synthetic corpus kernel resolves by family#seed name.
	name := synth.Families()[0].Name() + "#3"
	resp, b = postJSON(t, ts.URL+"/v1/estimate", `{"workload":"`+name+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthetic estimate status %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatal(err)
	}
	if er.Workload != name || er.Verdict == "declined" {
		t.Fatalf("synthetic estimate = %q/%q, want %q analyzable", er.Workload, er.Verdict, name)
	}

	// Validation failures.
	resp, _ = postJSON(t, ts.URL+"/v1/estimate", `{"workload":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/estimate", `{"workload":"swim","config":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown config = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/estimate", `{"workload":"swim","bogus":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", resp.StatusCode)
	}
}

// TestEstimateMetrics: estimates never touch the simulation pool or the
// result cache; they keep their own verdict counters and latency window.
func TestEstimateMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var runs atomic.Int64
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		runs.Add(1)
		return stubRow(w)
	})

	postJSON(t, ts.URL+"/v1/estimate", `{"workload":"swim"}`)
	postJSON(t, ts.URL+"/v1/estimate", `{"workload":"swim","config":"larger-l1"}`)
	postJSON(t, ts.URL+"/v1/estimate", `{"workload":"perl"}`)

	snap := fetchMetrics(t, ts.URL)
	if snap.Estimates.Served != 3 {
		t.Fatalf("served = %d, want 3", snap.Estimates.Served)
	}
	if snap.Estimates.Verdicts["exact"] != 2 || snap.Estimates.Verdicts["declined"] != 1 {
		t.Fatalf("verdicts = %v, want exact:2 declined:1", snap.Estimates.Verdicts)
	}
	if snap.Estimates.P50Micros <= 0 {
		t.Fatalf("p50 = %g, want > 0", snap.Estimates.P50Micros)
	}
	if runs.Load() != 0 || snap.Runs.Started != 0 {
		t.Fatalf("estimates dispatched %d simulations", runs.Load())
	}
	if snap.Requests["estimate"] != 3 {
		t.Fatalf("request counter = %d, want 3", snap.Requests["estimate"])
	}
}

// TestRunSyntheticWorkload: the run path resolves family#seed names too,
// so the whole corpus is addressable through the service cache keys.
func TestRunSyntheticWorkload(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var got atomic.Value
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		got.Store(w.Name)
		return stubRow(w)
	})
	name := synth.Families()[0].Name() + "#5"
	resp, b := postJSON(t, ts.URL+"/v1/run", `{"workload":"`+name+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if got.Load() != name {
		t.Fatalf("executor saw workload %v, want %q", got.Load(), name)
	}
	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Workload != name || rr.Key == "" {
		t.Fatalf("response workload %q key %q", rr.Workload, rr.Key)
	}
}

// TestSweepStreamsCanonicalBytes: a multi-cell sweep is delivered as a
// progressive stream, but the bytes on the wire must be exactly the
// canonical single-write encoding — decode and re-marshal proves it.
func TestSweepStreamsCanonicalBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	})
	resp, b := postJSON(t, ts.URL+"/v1/sweep",
		`{"workloads":["swim","compress","vpenta"],"configs":["base","larger-l1"],"mechanisms":["bypass","victim"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var sr SweepResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Sweeps) != 4 {
		t.Fatalf("%d sweeps, want 4", len(sr.Sweeps))
	}
	canonical, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	canonical = append(canonical, '\n')
	if !bytes.Equal(b, canonical) {
		t.Fatalf("streamed bytes differ from canonical encoding:\nstream: %q\ncanon:  %q", b, canonical)
	}
}

// TestSweepBodyIsOneEncoding: a one-cell sweep and a two-slice sweep go
// through the same streaming writer, and each body is exactly
// json.Marshal(SweepResponse{...}) plus a newline, served as JSON.
func TestSweepBodyIsOneEncoding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	})
	for _, tc := range []struct {
		body   string
		sweeps int
	}{
		{`{"workloads":["swim"],"configs":["base"],"mechanisms":["bypass"]}`, 1},
		{`{"workloads":["swim","compress"],"configs":["base"],"mechanisms":["bypass","victim"]}`, 2},
	} {
		resp, b := postJSON(t, ts.URL+"/v1/sweep", tc.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q: %s", tc.body, resp.StatusCode, resp.Header.Get("Content-Type"), b)
		}
		var sr SweepResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Sweeps) != tc.sweeps {
			t.Fatalf("%s: %d sweeps, want %d", tc.body, len(sr.Sweeps), tc.sweeps)
		}
		want, err := json.Marshal(SweepResponse{Sweeps: sr.Sweeps})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(b, want) {
			t.Fatalf("%s: body is not one encoding:\nbody: %q\nwant: %q", tc.body, b, want)
		}
	}
}

// TestSweepEstimatePlan: estimate_top prunes each (config, mechanism)
// slice to the predicted-interesting workloads — a declined
// (unpredictable) workload always survives over one whose variants the
// estimator separates confidently — and the pruned names are reported. A
// cut that prunes nothing must not change the response bytes.
func TestSweepEstimatePlan(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		return stubRow(w)
	})

	// estimate_top at or above the workload count keeps every row: the
	// body is byte-identical to the same sweep without it.
	respA, bodyA := postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["swim","perl","vpenta"],"configs":["base"],"mechanisms":["bypass"]}`)
	respB, bodyB := postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["swim","perl","vpenta"],"configs":["base"],"mechanisms":["bypass"],"estimate_top":3}`)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s", respA.StatusCode, respB.StatusCode, bodyB)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("an estimate_top that prunes nothing changed the response bytes:\nplain:   %q\nplanned: %q", bodyA, bodyB)
	}

	// Pruning: perl is declined (interest ∞) so it must survive any top-1
	// cut; the analyzable workloads are pruned and named in request order.
	var executed atomic.Int64
	s.SetRunRow(func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
		executed.Add(1)
		return stubRow(w)
	})
	resp, b := postJSON(t, ts.URL+"/v1/sweep",
		`{"workloads":["swim","perl","vpenta"],"configs":["larger-l1"],"mechanisms":["bypass"],"estimate_top":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var sr SweepResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Sweeps) != 1 {
		t.Fatalf("%d sweeps, want 1", len(sr.Sweeps))
	}
	sw := sr.Sweeps[0]
	if len(sw.Rows) != 1 || sw.Rows[0].Workload != "perl" {
		t.Fatalf("kept rows %+v, want exactly perl", sw.Rows)
	}
	if len(sw.Pruned) != 2 || sw.Pruned[0] != "swim" || sw.Pruned[1] != "vpenta" {
		t.Fatalf("pruned = %v, want [swim vpenta]", sw.Pruned)
	}
	if executed.Load() != 1 {
		t.Fatalf("%d cells executed, want 1 (pruned cells must not run)", executed.Load())
	}

	// Pruning needs no server option: a second slice on the same server
	// prunes too. Negative values are rejected.
	resp, b = postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["swim","perl"],"configs":["base"],"mechanisms":["victim"],"estimate_top":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second pruned sweep = %d, want 200: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if sw := sr.Sweeps[0]; len(sw.Rows) != 1 || sw.Rows[0].Workload != "perl" || len(sw.Pruned) != 1 || sw.Pruned[0] != "swim" {
		t.Fatalf("rows %+v pruned %v, want perl kept and swim pruned", sw.Rows, sw.Pruned)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", `{"workloads":["swim"],"estimate_top":-1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative estimate_top = %d, want 400", resp.StatusCode)
	}
}
