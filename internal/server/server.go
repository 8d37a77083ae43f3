// Package server implements selcached, the simulation-as-a-service layer
// over the reproduction's experiment engine. It exposes a small JSON API
// (docs/SERVICE.md) for running single cells and Table-2/3-shaped sweeps,
// backed by three reuse tiers: the content-addressed result cache
// (identical requests are cache hits), one in-flight fill record per
// missing cell collapsing concurrent identical requests onto one
// simulation (fill.go), and the shared experiments.TraceCache (distinct
// requests that share a stream class still skip the interpreter).
// Admission control (admission.go) bounds how many simulations run at
// once; requests carry deadlines, and a timed-out request abandons only
// the wait — the run completes in the background and fills the cache for
// the retry.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/parallel"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// maxBodyBytes bounds request bodies; the largest legitimate body (a
// fully-enumerated sweep) is a few hundred bytes.
const maxBodyBytes = 1 << 20

// ForwardedHeader marks a request a cluster coordinator already routed
// once. A server seeing it executes locally instead of consulting its own
// remote hook, which breaks forwarding cycles between misconfigured nodes.
const ForwardedHeader = "X-Selcache-Forwarded"

// Config parameterizes a Server.
type Config struct {
	// Workers bounds concurrent simulations (0: one per CPU).
	Workers int
	// TraceDir enables .sctrace persistence for the trace cache.
	TraceDir string
	// CacheDir enables result persistence (<key>.json files).
	CacheDir string
	// CacheEntries is the in-memory result LRU capacity (0: 4096).
	CacheEntries int
	// DefaultTimeout bounds requests that do not set timeout_ms
	// (0: no deadline).
	DefaultTimeout time.Duration
	// MaxBacklog bounds queued simulation admissions; past it requests
	// are shed with 429 + Retry-After (0: 16x workers, at least 256).
	MaxBacklog int
	// MaxBackgroundFills bounds simulations started with no live waiter
	// — cache fills for requests that already timed out (0: the worker
	// count; negative: no background fills).
	MaxBackgroundFills int
	// Role names this node's place in a cluster for GET /healthz
	// ("coordinator", "worker"; empty: "standalone").
	Role string
	// Log receives startup and per-error lines (nil: discarded).
	Log io.Writer
}

// Server is the selcached engine: an http.Handler plus the caches and
// admission gate behind it. Create one with New; it has no Close — stop
// the HTTP listener first, then call Drain to wait for background work.
type Server struct {
	cfg     Config
	traces  *experiments.TraceCache
	results *resultCache
	metrics *metrics
	adm     *admission
	mux     *http.ServeMux
	bg      sync.WaitGroup // one count per fill leader

	fillMu sync.Mutex
	fills  map[string]*fill // in-flight fills by content key
	// bgNow counts fills running with no live waiter, bounded by bgCap;
	// bgCompleted and bgAborted are lifetime counters, where aborted
	// means a fill was dropped before running because the bound was
	// reached.
	bgNow, bgCap           int
	bgCompleted, bgAborted uint64

	// runRow executes one cell; tests substitute slow or counting stand-ins.
	runRow func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row
	// remote, when set, is offered every cell before the local engine
	// (the cluster scale-out hook).
	remote RemoteFunc
	// peer, when set, is asked for an already-cached result before any
	// execution — the peer-fetch tier of the cache hierarchy.
	peer PeerFetchFunc
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	workers := parallel.Workers(cfg.Workers)
	bgCap := cfg.MaxBackgroundFills
	if bgCap == 0 {
		bgCap = workers
	}
	s := &Server{
		cfg:     cfg,
		traces:  experiments.NewTraceCache(cfg.TraceDir),
		results: newResultCache(cfg.CacheEntries, cfg.CacheDir),
		metrics: newMetrics(),
		fills:   make(map[string]*fill),
		bgCap:   max(bgCap, 0),
		runRow:  experiments.RunRow,
	}
	s.adm = newAdmission(workers, cfg.MaxBacklog, 0, s.metrics.typicalRun)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux = mux
	return s
}

// Handler returns the HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// Mux exposes the route table so optional layers (internal/cluster) can
// mount additional endpoints next to the core API before serving starts.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// RemoteFunc executes one canonical cell somewhere other than the local
// engine — in practice, on a cluster worker. A nil error means sr is the
// authoritative result for the spec; ErrNotRouted (or any other error)
// sends the cell to the local engine instead.
type RemoteFunc func(spec Spec) (StoredResult, error)

// ErrNotRouted is the RemoteFunc refusal that carries no news: the remote
// layer has nowhere to send the cell (no live workers). The server falls
// back to local execution without logging it as a failure.
var ErrNotRouted = errors.New("cell not routed remotely")

// SetRemote installs the scale-out hook consulted before local execution.
// Call it before the server starts handling requests; it is not
// synchronized against in-flight cells.
func (s *Server) SetRemote(fn RemoteFunc) { s.remote = fn }

// PeerFetchFunc asks a peer node's cache for an already-cached result —
// it must never trigger execution anywhere. ok reports a validated hit;
// anything else (miss, timeout, no peers) is false and the lookup falls
// through to the next tier.
type PeerFetchFunc func(spec Spec) (StoredResult, bool)

// SetPeerFetch installs the peer-cache tier consulted after a local miss
// and before any execution. Call it before the server starts handling
// requests; it is not synchronized against in-flight cells.
func (s *Server) SetPeerFetch(fn PeerFetchFunc) { s.peer = fn }

// SetRunRow replaces the local cell executor. Tests and fault-injection
// harnesses substitute counting, slow, or fabricated stand-ins; call it
// before the server starts handling requests.
func (s *Server) SetRunRow(fn func(w workloads.Workload, o core.Options, tc *experiments.TraceCache) experiments.Row) {
	s.runRow = fn
}

// Drain blocks until every simulation admitted so far — including
// background fills whose requester timed out — has completed and written
// its result to the cache. Call it after the HTTP listener has stopped.
func (s *Server) Drain() { s.bg.Wait() }

// Describe summarizes the server configuration for startup logging.
func (s *Server) Describe() string {
	d := "none"
	if s.cfg.DefaultTimeout > 0 {
		d = s.cfg.DefaultTimeout.String()
	}
	return fmt.Sprintf("%d simulation workers, result cache %s, default timeout %s",
		s.adm.slots, s.results.describe(), d)
}

// requestContext derives the deadline context for a request: timeout_ms
// when set, the server default otherwise, none when both are zero.
func (s *Server) requestContext(r *http.Request, timeoutMillis int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMillis > 0 {
		d = time.Duration(timeoutMillis) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// HealthResponse is the body of GET /healthz. Beyond liveness it carries
// enough build identity (module version, Go toolchain, VCS revision) for
// a cluster operator to tell worker versions apart from `ctl health` or
// the coordinator's status page.
type HealthResponse struct {
	Status    string  `json:"status"`
	Role      string  `json:"role"`
	Version   string  `json:"version"`
	GoVersion string  `json:"go"`
	Revision  string  `json:"revision,omitempty"`
	UptimeSec float64 `json:"uptime_sec"`
}

// buildIdentity is resolved once from the binary's embedded build info.
var buildIdentity = func() (version, goVersion, revision string) {
	version, goVersion = "unknown", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, goVersion, ""
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
		}
	}
	return version, goVersion, revision
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("healthz")
	role := s.cfg.Role
	if role == "" {
		role = "standalone"
	}
	version, goVersion, revision := buildIdentity()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:    "ok",
		Role:      role,
		Version:   version,
		GoVersion: goVersion,
		Revision:  revision,
		UptimeSec: time.Since(s.metrics.start).Seconds(),
	})
}

// MetricsSnapshot is the body of GET /metrics: expvar-style counters for
// every reuse tier plus run latency quantiles.
type MetricsSnapshot struct {
	UptimeSec   float64           `json:"uptime_sec"`
	Workers     int               `json:"workers"`
	Requests    map[string]uint64 `json:"requests"`
	ResultCache ResultCacheStats  `json:"result_cache"`
	// Tiers counts served results per hierarchy tier (memory, disk,
	// peer, remote, computed); deduplicated waiters count under their
	// leader's tier.
	Tiers      map[string]uint64           `json:"tiers"`
	Admission  AdmissionMetrics            `json:"admission"`
	TraceCache experiments.TraceCacheStats `json:"trace_cache"`
	Runs       RunMetrics                  `json:"runs"`
	Estimates  EstimateMetrics             `json:"estimates"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("metrics")
	adm := s.adm.snapshot()
	s.fillMetrics(&adm)
	snap := MetricsSnapshot{
		UptimeSec:   time.Since(s.metrics.start).Seconds(),
		Workers:     s.adm.slots,
		Requests:    s.metrics.snapshotRequests(),
		ResultCache: s.results.snapshot(),
		Tiers:       s.metrics.snapshotTiers(),
		Admission:   adm,
		TraceCache:  s.traces.Stats(),
		Runs:        s.metrics.snapshotRuns(),
		Estimates:   s.metrics.snapshotEstimates(),
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("workloads")
	all := workloads.All()
	out := make([]WorkloadInfo, 0, len(all))
	for _, wl := range all {
		out = append(out, WorkloadInfo{Name: wl.Name, Class: wl.Class.String(), Models: wl.Models})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("run")
	var req RunRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	spec, o, err := ResolveSpec(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Version != "" && !versionKnown(req.Version) {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown version %q", req.Version))
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMillis)
	defer cancel()
	c := s.claim(spec, o, ClassRun, r.Header.Get(ForwardedHeader) != "")
	sr, tier, err := s.await(ctx, &c)
	if err != nil {
		s.failExec(w, err)
		return
	}
	setCacheHeader(w, tier)
	writeJSON(w, http.StatusOK, sr.Response(req.Version))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("sweep")
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	noRemote := r.Header.Get(ForwardedHeader) != ""
	names := req.Workloads
	if len(names) == 0 {
		for _, wl := range workloads.All() {
			names = append(names, wl.Name)
		}
	}
	s.serveSweep(w, r, req, names, noRemote)
}

// sweepPlan is one (config, mechanism) slice of a sweep: its resolved
// cells plus the options they share, the workloads estimate_top pruned
// away before execution, and one claim per surviving cell.
type sweepPlan struct {
	spec0  Spec // config/mechanism identity (workload varies)
	opts   core.Options
	specs  []Spec
	pruned []string
	claims []claim
}

// serveSweep resolves the request matrix, claims every cell through the
// shared reuse tiers, and assembles per-(config, mechanism) sweeps with
// the exact float-accumulation order of the batch drivers. Sweeps stream:
// each completed sweep slice is encoded as soon as its cells finish and
// flushed before the next one is written, so a Table-3-sized matrix
// delivers its first rows while later configurations are still simulating.
// The streamed bytes are identical to the buffered single-write encoding.
func (s *Server) serveSweep(w http.ResponseWriter, r *http.Request, req SweepRequest, names []string, noRemote bool) {
	configs := req.Configs
	if len(configs) == 0 {
		for _, c := range experimentConfigNames() {
			configs = append(configs, c)
		}
	}
	mechs := req.Mechanisms
	if len(mechs) == 0 {
		mechs = []string{"bypass", "victim"}
	}
	if req.EstimateTop < 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("estimate_top must be non-negative, got %d", req.EstimateTop))
		return
	}

	// Resolve every cell up front so validation errors arrive before any
	// simulation starts.
	var plans []sweepPlan
	for _, cfg := range configs {
		for _, mech := range mechs {
			plan := sweepPlan{}
			for _, name := range names {
				spec, o, err := ResolveSpec(RunRequest{
					Workload:      name,
					Config:        cfg,
					Mechanism:     mech,
					Classify:      req.Classify,
					UpdateWhenOff: req.UpdateWhenOff,
					Policy:        req.Policy,
					WayMemo:       req.WayMemo,
					Energy:        req.Energy,
				})
				if err != nil {
					s.fail(w, http.StatusBadRequest, err)
					return
				}
				plan.opts = o
				plan.specs = append(plan.specs, spec)
			}
			if len(plan.specs) == 0 {
				s.fail(w, http.StatusBadRequest, errors.New("empty workload list"))
				return
			}
			plan.spec0 = plan.specs[0]
			plans = append(plans, plan)
		}
	}

	// estimate_top prunes each plan to its most interesting workloads as
	// scored by the symbolic estimator, which costs microseconds per cell
	// — cheaper than one simulated iteration for the whole matrix.
	if req.EstimateTop > 0 {
		memo := newInterestMemo()
		for pi := range plans {
			plans[pi].prune(req.EstimateTop, memo)
		}
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMillis)
	defer cancel()

	// Claim every cell before waiting on any: admission bounds how many
	// fills run at once, and a sweep listing the same workload twice joins
	// one fill twice (one run). Claims an early return leaves unawaited
	// are dropped on the way out.
	for pi := range plans {
		for _, spec := range plans[pi].specs {
			plans[pi].claims = append(plans[pi].claims, s.claim(spec, plans[pi].opts, ClassSweep, noRemote))
		}
	}
	defer func() {
		for pi := range plans {
			for ci := range plans[pi].claims {
				s.drop(&plans[pi].claims[ci])
			}
		}
	}()

	wrote := false
	for pi := range plans {
		sres, err := s.awaitSweep(ctx, &plans[pi])
		var b []byte
		if err == nil {
			b, err = json.Marshal(sres)
		}
		if err != nil {
			if !wrote {
				s.failExec(w, err)
				return
			}
			// The status line and earlier sweeps are already on the wire;
			// the only honest signal left is an aborted connection.
			fmt.Fprintf(s.cfg.Log, "selcached: 504 mid-stream: %v\n", err)
			panic(http.ErrAbortHandler)
		}
		if !wrote {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"sweeps":[`)
			wrote = true
		} else {
			io.WriteString(w, ",")
		}
		w.Write(b)
		// Deliver this slice while the next one simulates; the last
		// slice goes out with the closing bracket.
		if f, ok := w.(http.Flusher); ok && pi < len(plans)-1 {
			f.Flush()
		}
	}
	io.WriteString(w, "]}\n")
}

// prune keeps the plan's top-N workloads by estimated interest (ties
// resolved toward request order), preserving request order among the
// survivors, and records the dropped names.
func (p *sweepPlan) prune(top int, memo *interestMemo) {
	if top >= len(p.specs) {
		return
	}
	idx := make([]int, len(p.specs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return memo.interest(p.specs[idx[a]], p.opts) > memo.interest(p.specs[idx[b]], p.opts)
	})
	keep := make([]bool, len(p.specs))
	for _, i := range idx[:top] {
		keep[i] = true
	}
	kept := p.specs[:0]
	for i, spec := range p.specs {
		if keep[i] {
			kept = append(kept, spec)
		} else {
			p.pruned = append(p.pruned, spec.Workload)
		}
	}
	p.specs = kept
}

// awaitSweep waits for one (config, mechanism) slice's cells in request
// order and renders it with the exact float-accumulation order of the
// batch drivers; the first failed cell fails the slice.
func (s *Server) awaitSweep(ctx context.Context, plan *sweepPlan) (SweepResult, error) {
	rows := make([]experiments.Row, len(plan.specs))
	sres := SweepResult{Config: plan.spec0.Config, Mechanism: plan.spec0.Mechanism, Pruned: plan.pruned}
	for ci := range plan.claims {
		sr, _, err := s.await(ctx, &plan.claims[ci])
		if err != nil {
			return SweepResult{}, err
		}
		rows[ci] = sr.Row
		sres.Rows = append(sres.Rows, sr.Response(""))
	}
	sw := experiments.Assemble(plan.opts, rows)
	sres.AvgImprovementPct = make(map[string]float64, core.NumVersions)
	for _, v := range core.Versions() {
		sres.AvgImprovementPct[v.String()] = sw.Avg[v]
	}
	sres.ClassAvgImprovementPct = make(map[string]map[string]float64)
	for c := 0; c < workloads.NumClasses; c++ {
		if sw.ClassCount[c] == 0 {
			continue
		}
		byV := make(map[string]float64, core.NumVersions)
		for _, v := range core.Versions() {
			byV[v.String()] = sw.ClassAvg[c][v]
		}
		sres.ClassAvgImprovementPct[workloads.Class(c).String()] = byV
	}
	return sres, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("results")
	key := r.PathValue("key")
	if !validKey(key) {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("malformed result key %q (want 64 hex characters)", key))
		return
	}
	sr, tier, ok := s.results.get(key)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no result for key %s", key))
		return
	}
	s.metrics.tierServed(tier)
	setCacheHeader(w, tier)
	writeJSON(w, http.StatusOK, sr.Response(""))
}

// experimentConfigNames lists the machine-configuration names in Table 3
// row order.
func experimentConfigNames() []string {
	var names []string
	for _, c := range sim.ExperimentConfigs() {
		names = append(names, c.Name)
	}
	return names
}

// fail writes a JSON error body and logs it.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	fmt.Fprintf(s.cfg.Log, "selcached: %d %v\n", status, err)
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// failExec maps an execution error to its HTTP shape: a shed request is
// 429 with Retry-After, an abandoned fill 503 (gone by the time a slot
// freed — retry immediately re-enqueues), a deadline 504.
func (s *Server) failExec(w http.ResponseWriter, err error) {
	var oe *overloadError
	switch {
	case errors.As(err, &oe):
		w.Header().Set("Retry-After", strconv.Itoa(oe.retryAfter))
		s.fail(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errAbandoned):
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusServiceUnavailable, err)
	default:
		s.fail(w, http.StatusGatewayTimeout, err)
	}
}

// decodeBody strictly decodes a JSON request body into dst.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	// A second document after the first is also malformed.
	if dec.More() {
		return errors.New("malformed request body: trailing data")
	}
	return nil
}

// setCacheHeader reports which tier of the cache hierarchy served the
// response. X-Selcache keeps its original hit/miss meaning — "hit" is a
// local cache answer (memory or disk), anything that left the node or
// simulated is a "miss" — while X-Selcache-Tier carries the exact tier.
func setCacheHeader(w http.ResponseWriter, tier string) {
	if tier == TierMemory || tier == TierDisk {
		w.Header().Set("X-Selcache", "hit")
	} else {
		w.Header().Set("X-Selcache", "miss")
	}
	w.Header().Set("X-Selcache-Tier", tier)
}

// writeJSON marshals v once and writes it with a trailing newline; the
// body bytes for a given v are deterministic, which the byte-identical
// guarantee of docs/SERVICE.md relies on.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}
