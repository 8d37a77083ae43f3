// exec.go is the coordinator's data path: route one canonical cell to a
// worker, survive its failures, and convert the worker's wire response
// back into the exact row the local engine would have produced.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/server"
	"selcache/internal/workloads"
)

// maxCellResponseBytes bounds a forwarded cell's response body; a full
// five-version RunResponse is a few KB.
const maxCellResponseBytes = 1 << 22

// Execute routes one cell to its shard owner, retrying with backoff and
// steering around failed workers. It satisfies server.RemoteFunc: a
// server.ErrNotRouted return means no workers are live and the caller
// should run the cell locally; any other error means every attempt was
// exhausted (the caller still falls back locally, but the failure is
// logged).
func (c *Coordinator) Execute(spec server.Spec) (server.StoredResult, error) {
	key := spec.Key()
	var lastErr error
	avoid := ""
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		w := c.pick(key, avoid)
		if w == nil {
			break // no live workers (left)
		}
		if attempt > 0 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
			time.Sleep(jittered(backoffFor(attempt, c.cfg.BackoffBase, c.cfg.BackoffCap)))
		}
		sr, err := c.attempt(w, key, spec)
		if err == nil {
			return sr, nil
		}
		lastErr = err
		avoid = w.addr
	}

	c.mu.Lock()
	if lastErr != nil || len(c.workers) > 0 {
		// Placing the cell was genuinely attempted (or workers exist but
		// all are down); count the local fallback. A coordinator that has
		// never seen a worker is just a standalone server — not a fallback.
		c.stats.LocalFallbacks++
	}
	c.mu.Unlock()
	if lastErr == nil {
		return server.StoredResult{}, server.ErrNotRouted
	}
	return server.StoredResult{}, lastErr
}

// backoffFor is the nominal delay before retry number attempt (1-based):
// base doubling per retry, capped.
func backoffFor(attempt int, base, cap time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// jittered spreads a nominal delay over [d/2, d): retries from a sweep's
// worth of failed cells decorrelate instead of stampeding the next worker
// in the same instant.
func jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half))
}

// attempt issues one routed request, hedging to the next distinct worker
// if the primary has not answered within HedgeAfter. The first success
// wins; the straggler's eventual answer is discarded (its side effect —
// warming that worker's cache — is harmless).
func (c *Coordinator) attempt(w *worker, key string, spec server.Spec) (server.StoredResult, error) {
	type outcome struct {
		sr     server.StoredResult
		err    error
		hedged bool
	}
	ch := make(chan outcome, 2)
	go func() {
		sr, err := c.call(w, spec, key)
		ch <- outcome{sr: sr, err: err}
	}()

	var hedgeTimer <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		hedgeTimer = time.After(c.cfg.HedgeAfter)
	}
	outstanding := 1
	var firstErr error
	for {
		select {
		case out := <-ch:
			outstanding--
			if out.err == nil {
				if out.hedged {
					c.mu.Lock()
					c.stats.HedgeWins++
					c.mu.Unlock()
				}
				return out.sr, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if outstanding == 0 {
				return server.StoredResult{}, firstErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			h := c.pick(key, w.addr)
			if h == nil || h.addr == w.addr {
				continue // nowhere distinct to hedge to
			}
			c.mu.Lock()
			c.stats.Hedges++
			c.mu.Unlock()
			outstanding++
			go func() {
				sr, err := c.call(h, spec, key)
				ch <- outcome{sr: sr, err: err, hedged: true}
			}()
		}
	}
}

// call forwards one cell to one worker under its in-flight bound and
// validates the answer all the way back to an engine-identical row.
func (c *Coordinator) call(w *worker, spec server.Spec, key string) (server.StoredResult, error) {
	w.sem <- struct{}{} // per-worker in-flight bound
	defer func() { <-w.sem }()

	body, err := json.Marshal(spec.Request())
	if err != nil {
		return server.StoredResult{}, fmt.Errorf("marshaling cell request: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, w.addr+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return server.StoredResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.ForwardedHeader, "1")

	resp, err := c.client.Do(req)
	if err != nil {
		c.noteCallError(w, true)
		return server.StoredResult{}, fmt.Errorf("%s: %w", w.addr, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxCellResponseBytes))
	if err != nil {
		c.noteCallError(w, true)
		return server.StoredResult{}, fmt.Errorf("%s: reading response: %w", w.addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		c.noteCallError(w, false)
		return server.StoredResult{}, fmt.Errorf("%s: status %s: %s", w.addr, resp.Status, firstLine(b))
	}
	var rr server.RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		c.noteCallError(w, false)
		return server.StoredResult{}, fmt.Errorf("%s: decoding response: %v", w.addr, err)
	}
	row, err := rowFromResponse(spec, key, rr)
	if err != nil {
		c.noteCallError(w, false)
		return server.StoredResult{}, fmt.Errorf("%s: %v", w.addr, err)
	}

	c.mu.Lock()
	w.cells++
	c.stats.RemoteCells++
	c.mu.Unlock()
	return server.StoredResult{Spec: spec, Row: row}, nil
}

// noteCallError records a failed forwarded cell. Transport-level failures
// (dial, reset, timeout) also count toward eviction — a worker that just
// dropped a cell should stop receiving its shard before the next health
// sweep gets around to it. HTTP-level failures do not: the worker is
// alive and talking, just unhappy about this request.
func (c *Coordinator) noteCallError(w *worker, transport bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.errs++
	c.stats.RemoteErrors++
	if transport {
		w.fails++
		if w.up && w.fails >= c.cfg.FailThreshold {
			w.up = false
			c.stats.Evictions++
			c.rebuildRingLocked()
			fmt.Fprintf(c.cfg.Log, "cluster: worker %s evicted after %d transport failures\n", w.addr, w.fails)
		}
	}
}

// firstLine truncates an error body for log-sized messages.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// rowFromResponse reconstructs the engine row from a worker's wire
// response. Everything is validated: the echoed key (a worker built with
// a different Spec encoding would content-address differently — version
// skew must fail loudly, not corrupt results), the version count, and
// the canonical version order. The numeric fields round-trip JSON
// bit-exactly (Go encodes float64 in shortest form that re-parses to the
// same value), which is what makes clustered output byte-identical to
// single-node output.
func rowFromResponse(spec server.Spec, key string, rr server.RunResponse) (experiments.Row, error) {
	if rr.Key != key {
		return experiments.Row{}, fmt.Errorf("worker answered key %.12s for cell %.12s (version skew?)", rr.Key, key)
	}
	if len(rr.Versions) != core.NumVersions {
		return experiments.Row{}, fmt.Errorf("worker answered %d versions, want %d", len(rr.Versions), core.NumVersions)
	}
	// Resolve, not ByName: synthetic "family#seed" cells are first-class
	// citizens of the cluster — ByName here silently demoted every one of
	// them to a failed attempt and a local fallback.
	wl, ok := workloads.Resolve(spec.Workload)
	if !ok {
		return experiments.Row{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	row := experiments.Row{Benchmark: spec.Workload, Class: wl.Class}
	for i, v := range core.Versions() {
		vr := rr.Versions[i]
		if vr.Version != v.String() {
			return experiments.Row{}, fmt.Errorf("version %d is %q, want %q", i, vr.Version, v)
		}
		row.Cycles[v] = vr.Cycles
		row.Improv[v] = vr.ImprovementPct
		row.Stats[v] = vr.Stats
	}
	return row, nil
}
