package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/server"
	"selcache/internal/trace"
	"selcache/internal/workloads"
	"selcache/internal/workloads/synth"
)

// The serve workload: selcached in-process on a loopback listener, driven
// open-loop from one generator over at most two connections.
const (
	serveCells   = 4000                  // synthetic family#seed cells
	serveRate    = 1000                  // mean arrivals per second (Poisson)
	serveZipfS   = 1.1                   // cell popularity skew
	serveConns   = 2                     // generator connections
	serveWarmup  = 5 * time.Second       // not measured: cold-start fills and stalls
	serveWindow  = 2 * time.Second       // tail_ms is the median of per-window p99s
	serveLimit   = 50 * time.Millisecond // a response later than this misses
	serveSamples = 16                    // cells recomputed outside the server
	traceSlot    = time.Second           // traced runs alternate traced/untraced slots
	lateLimit    = time.Millisecond      // a send this far past its due time is late
	serveBoots   = 9                     // boots take milliseconds; more of them steady the median
)

// serveMix is the request-class mix in the order classes are drawn.
var serveMix = []struct {
	class string
	frac  float64
}{{"run", 0.6}, {"sweep", 0.2}, {"estimate", 0.2}}

type serveCell struct{ workload, config, mech string }

func (c serveCell) key() string { return c.workload + "|" + c.config + "|" + c.mech }

type planReq struct {
	due   time.Duration // since the generator started
	class string
	cell  int
}

type servePlan struct {
	cells  []serveCell
	reqs   []planReq
	digest string
}

// buildServePlan renders the seeded schedule: zipfian popularity over
// synthetic cells (named benchmarks are left out, so tail latency measures
// the service rather than which half-second cell the tail drew),
// exponential inter-arrival gaps, bypass and victim half and half. Equal
// seeds and durations give equal plans and digests.
func buildServePlan(seed int64, dur time.Duration) servePlan {
	rng := rand.New(rand.NewSource(seed))
	fams := synth.Families()
	p := servePlan{cells: make([]serveCell, serveCells)}
	for i := range p.cells {
		// The family follows the popularity rank, so every seed spreads the
		// same families over the same ranks and only the kernels differ.
		f := fams[i%len(fams)]
		mech := "bypass"
		if rng.Intn(2) == 1 {
			mech = "victim"
		}
		p.cells[i] = serveCell{fmt.Sprintf("%s#%d", f.Name(), rng.Intn(1000)), "base", mech}
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveCells-1)
	h := sha256.New()
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if at >= dur {
			break
		}
		class, u := serveMix[len(serveMix)-1].class, rng.Float64()
		for _, m := range serveMix {
			if u -= m.frac; u < 0 {
				class = m.class
				break
			}
		}
		r := planReq{due: at, class: class, cell: int(zipf.Uint64())}
		p.reqs = append(p.reqs, r)
		fmt.Fprintf(h, "%d %s %s\n", r.due, r.class, p.cells[r.cell].key())
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// reqResult is one request's outcome. Times are since the generator
// started.
type reqResult struct {
	sent, done time.Duration
	status     int
	tier       string
	hash       string
	body       []byte // kept for sampled cells only
	err        error
}

// serveTracer holds a traced run's span recorder and the generator's start
// time, which decides whether a moment falls in a traced slot.
type serveTracer struct {
	rec   *spanRec
	start atomic.Int64 // generator start, unix nanoseconds; 0 before it starts
}

// tracedAt reports whether offset t of the generator's timeline is in a
// traced slot: after warm-up, every other slot.
func tracedAt(t time.Duration) bool {
	return t >= serveWarmup && int((t-serveWarmup)/traceSlot)%2 == 1
}

// runRow is the server's cell executor during a traced run: experiments
// RunRow's loop with a span around each layer call, in traced slots only.
func (st *serveTracer) runRow(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row {
	start := st.start.Load()
	if start == 0 || !tracedAt(time.Duration(time.Now().UnixNano()-start)) {
		return experiments.RunRow(w, o, tc)
	}
	rec := st.rec
	root := rec.root(-1, 0, "experiments.run_row")
	row := experiments.Row{Benchmark: w.Name, Class: w.Class}
	blk := trace.NewBlock(trace.DefaultBlockEvents)
	var base core.Result
	for _, v := range core.Versions() {
		sp := rec.child(root, "experiments.trace_cache.get")
		t := tc.Get(w, v, o)
		rec.end(sp, nil)
		res := core.Result{Version: v}
		var err error
		if res.Sim, err = tracedReplay(rec, root, t, v, o, blk); err != nil {
			res = core.ReplayTraceBuffered(t, v, o, blk)
		}
		if v == core.Base {
			base = res
		}
		row.Cycles[v] = res.Sim.Cycles
		row.Improv[v] = core.Improvement(base, res)
		row.Stats[v] = res.Sim
	}
	rec.end(root, map[string]any{"cell": cellKey(w.Name, o)})
	return row
}

// spanHeader carries a traced request's id, span id and track to the
// server-side middleware.
const spanHeader = "X-Bench-Span"

// middleware opens a server.handle span under the client's request span.
func (st *serveTracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p tok
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d.%d.%d", &p.req, &p.id, &p.track); err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := st.rec.child(p, "server.handle")
		h.ServeHTTP(w, r)
		st.rec.end(sp, nil)
	})
}

// daemon is a running in-process selcached.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// boot starts a server on a loopback listener and returns once /healthz
// answers 200.
func boot(client *http.Client, st *serveTracer) (*daemon, error) {
	srv := server.New(server.Config{Workers: workers})
	var h http.Handler = srv.Handler()
	if st != nil {
		srv.SetRunRow(st.runRow)
		h = st.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("serve: /healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener down, waits for the serve loop to return and
// for every admitted simulation to finish.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	d.srv.Drain()
	return err
}

// generate replays the plan open-loop: each request is sent at its due
// time, or as soon as one of the connections is free if the generator is
// behind. Requests in traced slots carry a loadgen.request span.
func generate(client *http.Client, url string, p servePlan, keep map[int]bool, st *serveTracer) []reqResult {
	out := make([]reqResult, len(p.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	if st != nil {
		st.start.Store(start.UnixNano())
	}
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.reqs) {
					return
				}
				r := p.reqs[i]
				if d := r.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				var rec *spanRec
				if st != nil && tracedAt(r.due) {
					rec = st.rec
				}
				out[i] = send(client, url, p.cells[r.cell], r.class, keep[r.cell] && r.class == "run", start, rec, track, int64(i)+1)
			}
		}(c)
	}
	wg.Wait()
	return out
}

func send(client *http.Client, url string, c serveCell, class string, keep bool, start time.Time, rec *spanRec, track int, id int64) reqResult {
	var path, body string
	switch class {
	case "run":
		path, body = "/v1/run", fmt.Sprintf(`{"workload":%q,"config":%q,"mechanism":%q}`, c.workload, c.config, c.mech)
	case "sweep":
		path, body = "/v1/sweep", fmt.Sprintf(`{"workloads":[%q],"configs":[%q],"mechanisms":[%q]}`, c.workload, c.config, c.mech)
	default:
		path, body = "/v1/estimate", fmt.Sprintf(`{"workload":%q,"config":%q}`, c.workload, c.config)
	}
	res := reqResult{sent: time.Since(start)}
	root := rec.root(track, id, "loadgen.request")
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if rec != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d.%d", root.req, root.id, root.track))
	}
	resp, err := client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.status, res.tier = resp.StatusCode, resp.Header.Get("X-Selcache-Tier")
	}
	res.done = time.Since(start)
	if rec != nil {
		rec.end(root, map[string]any{"class": class, "cell": c.key(), "tier": res.tier, "status": res.status})
	}
	if err != nil {
		res.err = err
		return res
	}
	sum := sha256.Sum256(data)
	res.hash = hex.EncodeToString(sum[:])
	if keep {
		res.body = data
	}
	return res
}

// runServe boots the server, replays a warm-up plus d of traffic and
// checks every response. A traced run alternates traced and untraced
// one-second slots after warm-up, so tracing overhead is measured on the
// same traffic mix.
func runServe(seed int64, d time.Duration, traced bool, spansPath string) (*outcome, error) {
	o := newOutcome()
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}
	defer client.CloseIdleConnections()

	var st *serveTracer
	var rt runtimeSample
	if traced {
		st = &serveTracer{rec: newSpanRec()}
		rt = readRuntime()
	}
	var golden [core.NumVersions]string
	if err := loadGolden("serve.json", &golden); err != nil {
		return nil, err
	}
	var dm *daemon
	times := make([]float64, serveBoots)
	for k := range times {
		t0 := time.Now()
		var err error
		if dm, err = boot(client, st); err != nil {
			return nil, err
		}
		if err := firstAnswers(client, dm.url, golden); err != nil {
			dm.stop()
			return nil, err
		}
		times[k] = time.Since(t0).Seconds()
		if k < len(times)-1 {
			if err := dm.stop(); err != nil {
				return nil, err
			}
		}
	}

	p := buildServePlan(seed, serveWarmup+d)
	samples := sampleCells(p)
	res := generate(client, dm.url, p, samples, st)
	retained := retainedMB()
	var snap server.MetricsSnapshot
	if traced {
		if err := getJSON(client, dm.url+"/metrics", &snap); err != nil {
			dm.stop()
			return nil, err
		}
	}
	if err := dm.stop(); err != nil {
		return nil, err
	}
	checkServe(o, p, res, samples)
	o.notes = serveNotes(p, res)

	var lat, latTraced, latPlain []float64
	var window []int
	var good, late, measured int
	for i, r := range res {
		due := p.reqs[i].due
		if due < serveWarmup {
			continue
		}
		measured++
		if r.sent-due > lateLimit {
			late++
		}
		if r.err != nil || r.status/100 != 2 {
			continue
		}
		l := r.done - due
		if l <= serveLimit {
			good++
		}
		lat = append(lat, millis(l))
		window = append(window, int((due-serveWarmup)/serveWindow))
		if tracedAt(due) {
			latTraced = append(latTraced, millis(l))
		} else {
			latPlain = append(latPlain, millis(l))
		}
	}
	if !traced {
		o.metrics["p50_ms"] = percentile(lat, 50)
		o.metrics["tail_ms"] = windowMedian(lat, window, 99)
		o.metrics["throughput"] = float64(good) / d.Seconds()
		o.metrics["setup_s"] = median(times)
		o.metrics["retained_mb"] = retained
		return o, nil
	}

	spans := linkRunRows(st.rec.snapshot())
	a := attribute(spans, "loadgen.request")
	if err := a.reconcile(0.10); err != nil {
		o.fail("%v", err)
	}
	m := o.metrics
	layerFracs(a, m)
	engineMetrics(spans, m)
	serveLayerMetrics(m, d, p, res, spans, snap)
	m["loadgen.late_frac"] = float64(late) / float64(measured)
	m["trace.overhead_frac"] = percentile(latTraced, 50)/percentile(latPlain, 50) - 1
	rt.since(m)
	return o, writeChrome(spansPath, spans)
}

// serveNotes lists ungated diagnostics of the measured phase, each with
// its sample count: tail percentiles over the whole phase, latency by
// request class and by serving tier, and how late the generator sent.
func serveNotes(p servePlan, res []reqResult) []string {
	var all, late []float64
	groups := map[string][]float64{}
	for i, r := range res {
		pr := p.reqs[i]
		if pr.due < serveWarmup || r.err != nil || r.status/100 != 2 {
			continue
		}
		l := millis(r.done - pr.due)
		all = append(all, l)
		late = append(late, millis(max(0, r.sent-pr.due)))
		groups["class "+pr.class] = append(groups["class "+pr.class], l)
		if r.tier != "" {
			groups["tier "+r.tier] = append(groups["tier "+r.tier], l)
		}
	}
	notes := []string{
		fmt.Sprintf("latency: p99 %.3f ms, p99.9 %.3f ms, max %.3f ms (n=%d)",
			percentile(all, 99), percentile(all, 99.9), percentile(all, 100), len(all)),
		fmt.Sprintf("generator lateness: p99 %.3f ms, max %.3f ms (n=%d)", percentile(late, 99), percentile(late, 100), len(late)),
	}
	for _, k := range sortedKeys(groups) {
		xs := groups[k]
		notes = append(notes, fmt.Sprintf("%s: p50 %.3f ms, p99 %.3f ms (n=%d)", k, percentile(xs, 50), percentile(xs, 99), len(xs)))
	}
	return notes
}

// setupCell is the fixed cell every boot answers before set-up ends; its
// served row is pinned by golden/serve.json.
func setupCell() serveCell {
	return serveCell{synth.Families()[0].Name() + "#1", "base", "bypass"}
}

// firstAnswers asks a freshly booted server one request of each class for
// the set-up cell, and checks the served row against its golden digests:
// set-up ends when the server has answered all three.
func firstAnswers(client *http.Client, url string, golden [core.NumVersions]string) error {
	for _, m := range serveMix {
		r := send(client, url, setupCell(), m.class, m.class == "run", time.Now(), nil, 0, 0)
		if r.err != nil {
			return fmt.Errorf("serve set-up %s: %w", m.class, r.err)
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("serve set-up %s: status %d", m.class, r.status)
		}
		if r.body == nil {
			continue
		}
		got, err := rowDigests(r.body)
		if err != nil {
			return fmt.Errorf("serve set-up: %w", err)
		}
		if got != golden {
			return fmt.Errorf("serve set-up: cell %s served digests %v, golden %v", setupCell().key(), got, golden)
		}
	}
	return nil
}

// sampleCells picks the first serveSamples distinct cells the plan sends
// as run requests; their served rows are recomputed after the run.
func sampleCells(p servePlan) map[int]bool {
	keep := map[int]bool{}
	for _, r := range p.reqs {
		if len(keep) == serveSamples {
			break
		}
		if r.class == "run" {
			keep[r.cell] = true
		}
	}
	return keep
}

// checkServe counts every request and checks that all responses for one
// (class, cell) are byte-identical and that the sampled cells' served rows
// equal experiments.RunRow computed outside the server.
func checkServe(o *outcome, p servePlan, res []reqResult, samples map[int]bool) {
	hashes := map[string]string{}
	bodies := map[int][]byte{}
	for i, r := range res {
		o.attempted++
		pr := p.reqs[i]
		key := pr.class + "|" + p.cells[pr.cell].key()
		switch {
		case r.err != nil:
			o.fail("serve %s: %v", key, r.err)
		case r.status/100 != 2:
			o.fail("serve %s: status %d", key, r.status)
		case hashes[key] != "" && hashes[key] != r.hash:
			o.fail("serve %s: response differs from an earlier one", key)
		default:
			hashes[key] = r.hash
			if r.body != nil && bodies[pr.cell] == nil {
				bodies[pr.cell] = r.body
			}
		}
	}
	for cell := range samples {
		o.attempted++
		if err := recompute(p.cells[cell], bodies[cell]); err != nil {
			o.fail("serve recompute %s: %v", p.cells[cell].key(), err)
		}
	}
}

// recompute checks a served /v1/run body against experiments.RunRow.
func recompute(c serveCell, body []byte) error {
	got, err := rowDigests(body)
	if err != nil {
		return err
	}
	row, err := cellRow(c)
	if err != nil {
		return err
	}
	for v := range got {
		if got[v] != statsDigest(row.Stats[v]) {
			return fmt.Errorf("%s differs from RunRow", core.Version(v))
		}
	}
	return nil
}

// rowDigests returns the per-version stats digests of a /v1/run body.
func rowDigests(body []byte) ([core.NumVersions]string, error) {
	var d [core.NumVersions]string
	var resp server.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return d, fmt.Errorf("decoding served row: %w", err)
	}
	if len(resp.Versions) != core.NumVersions {
		return d, fmt.Errorf("served %d versions", len(resp.Versions))
	}
	for v, vr := range resp.Versions {
		d[v] = statsDigest(vr.Stats)
	}
	return d, nil
}

// cellRow computes a cell's row with experiments.RunRow, outside any
// server.
func cellRow(c serveCell) (experiments.Row, error) {
	_, o, err := server.ResolveSpec(server.RunRequest{Workload: c.workload, Config: c.config, Mechanism: c.mech})
	if err != nil {
		return experiments.Row{}, err
	}
	w, _ := workloads.Resolve(c.workload)
	return experiments.RunRow(w, o, nil), nil
}

// linkRunRows parents each traced experiments.run_row span — run on a
// server pool goroutine that knows no request — under the server.handle
// span of the earliest request for its cell whose interval contains it:
// the request that led the fill. The run_row and its children move to
// that request's track.
func linkRunRows(spans []span) []span {
	byID := map[int64]int{}
	for i, s := range spans {
		byID[s.ID] = i
	}
	handles := map[string][]int{}
	for i, s := range spans {
		if s.Name != "server.handle" {
			continue
		}
		if p, ok := byID[s.Parent]; ok {
			cell, _ := spans[p].Attrs["cell"].(string)
			handles[cell] = append(handles[cell], i)
		}
	}
	moved := map[int64]span{}
	for i, s := range spans {
		if s.Name != "experiments.run_row" {
			continue
		}
		cell, _ := s.Attrs["cell"].(string)
		best := -1
		for _, h := range handles[cell] {
			hs := spans[h]
			if hs.Start <= s.Start && s.End <= hs.End && (best < 0 || hs.Start < spans[best].Start) {
				best = h
			}
		}
		if best >= 0 {
			spans[i].Parent, spans[i].Req, spans[i].Track = spans[best].ID, spans[best].Req, spans[best].Track
			moved[s.ID] = spans[i]
		}
	}
	for i, s := range spans {
		if p, ok := moved[s.Parent]; ok {
			spans[i].Req, spans[i].Track = p.Req, p.Track
		}
	}
	return spans
}

// serveLayerMetrics derives the service-tier metrics of a traced run from
// the traced slots' responses, the run_row spans and /metrics.
func serveLayerMetrics(m map[string]float64, d time.Duration, p servePlan, res []reqResult, spans []span, snap server.MetricsSnapshot) {
	var runs, memory, computed int
	var computedLat time.Duration
	for i, r := range res {
		if !tracedAt(p.reqs[i].due) || p.reqs[i].class != "run" || r.status != http.StatusOK {
			continue
		}
		runs++
		switch r.tier {
		case server.TierMemory:
			memory++
		case server.TierComputed:
			computed++
			computedLat += r.done - r.sent
		}
	}
	var rowTime time.Duration
	var rowN int
	for _, s := range spans {
		if s.Name == "experiments.run_row" {
			rowTime += s.dur()
			rowN++
		}
	}
	if runs > 0 {
		m["server.tier.memory_frac"] = float64(memory) / float64(runs)
		m["server.tier.computed_frac"] = float64(computed) / float64(runs)
	}
	if computed > 0 && rowN > 0 {
		meanLat := float64(computedLat) / float64(computed)
		m["server.queue_frac"] = (meanLat - float64(rowTime)/float64(rowN)) / meanLat
	}
	// run_row spans exist only in the traced slots: every other second.
	if slots := int(d/traceSlot) / 2; slots > 0 {
		m["parallel.utilization"] = float64(rowTime) / float64(workers*time.Duration(slots)*traceSlot)
	}
	m["server.dedup_waits"] = float64(snap.Runs.Deduped)
	var shed uint64
	for _, n := range snap.Admission.Shed {
		shed += n
	}
	m["server.shed"] = float64(shed)
	tc := snap.TraceCache
	if gets := tc.Hits + tc.Misses; gets > 0 {
		m["experiments.trace_cache.gets"] = float64(gets)
		m["experiments.trace_cache.hit_ratio"] = float64(tc.Hits) / float64(gets)
	}
	m["experiments.trace_cache.waits"] = float64(tc.Waits)
	m["trace.encoded_mb"] = float64(tc.Bytes) / 1e6
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
