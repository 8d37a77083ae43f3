// api.go defines the wire types of the selcached JSON API and the
// canonicalization that turns a request into a content-addressed cache
// key. docs/SERVICE.md is the operator-facing reference for everything
// here; keep the two in sync.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// RunRequest is the body of POST /v1/run: one benchmark through all five
// simulated versions under one machine configuration and mechanism.
type RunRequest struct {
	// Workload is the benchmark name (GET /v1/workloads lists them).
	Workload string `json:"workload"`
	// Config is a machine-configuration name (default "base").
	Config string `json:"config,omitempty"`
	// Mechanism is "bypass" or "victim" (default "bypass").
	Mechanism string `json:"mechanism,omitempty"`
	// Classify enables conflict/capacity/compulsory miss attribution.
	Classify bool `json:"classify,omitempty"`
	// UpdateWhenOff keeps MAT/SLDT learning while the mechanism is off
	// (the ablation knob).
	UpdateWhenOff bool `json:"update_when_off,omitempty"`
	// Policy is the cache replacement policy, "lru" or "ehc"
	// (default "lru").
	Policy string `json:"policy,omitempty"`
	// WayMemo enables way memoization on both cache levels.
	WayMemo bool `json:"waymemo,omitempty"`
	// Energy enables the per-run energy model.
	Energy bool `json:"energy,omitempty"`
	// Version optionally restricts the response to one version. It does
	// not enter the cache key: the simulation always produces the full
	// row, and the filter applies at render time.
	Version string `json:"version,omitempty"`
	// TimeoutMillis bounds this request; 0 means the server default.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a Table-2/3-shaped matrix
// of (config × mechanism × workload) cells. Empty lists mean "all".
type SweepRequest struct {
	Workloads     []string `json:"workloads,omitempty"`
	Configs       []string `json:"configs,omitempty"`
	Mechanisms    []string `json:"mechanisms,omitempty"`
	Classify      bool     `json:"classify,omitempty"`
	UpdateWhenOff bool     `json:"update_when_off,omitempty"`
	Policy        string   `json:"policy,omitempty"`
	WayMemo       bool     `json:"waymemo,omitempty"`
	Energy        bool     `json:"energy,omitempty"`
	TimeoutMillis int64    `json:"timeout_ms,omitempty"`
	// EstimateTop, when positive, prunes each (config, mechanism) sweep to
	// its N most interesting workloads as scored by the symbolic locality
	// estimator; the pruned names are reported in SweepResult.Pruned.
	// Negative values are rejected.
	EstimateTop int `json:"estimate_top,omitempty"`
}

// Spec is the canonical, fully-resolved identity of one simulation
// cell (a RunRequest with defaults applied and the render-only fields
// stripped). Its deterministic JSON encoding is what gets hashed into
// the content-addressed result key, so field order and types here ARE
// the cache-key format: changing them invalidates every persisted
// result, exactly like changing the trace codec invalidates .sctrace
// files. internal/cluster shards sweeps by this key, which is also why
// the type is exported.
type Spec struct {
	Workload      string `json:"workload"`
	Config        string `json:"config"`
	Mechanism     string `json:"mechanism"`
	Classify      bool   `json:"classify"`
	UpdateWhenOff bool   `json:"update_when_off"`
	Policy        string `json:"policy"`
	WayMemo       bool   `json:"waymemo"`
	Energy        bool   `json:"energy"`
}

// ResolveSpec validates a RunRequest's identity fields against the known
// workloads, configurations and mechanisms and returns the canonical
// spec plus the simulation options it denotes.
func ResolveSpec(req RunRequest) (Spec, core.Options, error) {
	spec := Spec{
		Workload:      req.Workload,
		Config:        req.Config,
		Mechanism:     req.Mechanism,
		Classify:      req.Classify,
		UpdateWhenOff: req.UpdateWhenOff,
		Policy:        req.Policy,
		WayMemo:       req.WayMemo,
		Energy:        req.Energy,
	}
	if spec.Config == "" {
		spec.Config = "base"
	}
	if spec.Mechanism == "" {
		spec.Mechanism = "bypass"
	}
	if spec.Policy == "" {
		spec.Policy = "lru"
	}
	if _, ok := workloads.Resolve(spec.Workload); !ok {
		return Spec{}, core.Options{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	cfg, ok := sim.ConfigByName(spec.Config)
	if !ok {
		return Spec{}, core.Options{}, fmt.Errorf("unknown config %q", spec.Config)
	}
	o := core.DefaultOptions()
	o.Machine = cfg
	o.Classify = spec.Classify
	o.UpdateWhenOff = spec.UpdateWhenOff
	if o.Mechanism, ok = sim.MechanismByName(spec.Mechanism); !ok {
		return Spec{}, core.Options{}, fmt.Errorf("unknown mechanism %q", spec.Mechanism)
	}
	if o.Policy, ok = sim.PolicyByName(spec.Policy); !ok {
		return Spec{}, core.Options{}, fmt.Errorf("unknown policy %q", spec.Policy)
	}
	o.WayMemo = spec.WayMemo
	o.Energy = spec.Energy
	return spec, o, nil
}

// Request returns the RunRequest that resolves back to s: every identity
// field and no render-only one. A cell forwarded through it (internal/
// cluster) reaches the worker whole, so both nodes hash the same key.
func (s Spec) Request() RunRequest {
	return RunRequest{
		Workload:      s.Workload,
		Config:        s.Config,
		Mechanism:     s.Mechanism,
		Classify:      s.Classify,
		UpdateWhenOff: s.UpdateWhenOff,
		Policy:        s.Policy,
		WayMemo:       s.WayMemo,
		Energy:        s.Energy,
	}
}

// Key returns the content address of the cell: the SHA-256 of the spec's
// canonical JSON encoding, in hex.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("server: marshaling Spec: %v", err)) // fixed struct; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// VersionResult is one simulated version's share of a run response.
type VersionResult struct {
	Version string `json:"version"`
	Cycles  uint64 `json:"cycles"`
	// ImprovementPct is the percentage cycle reduction versus base.
	ImprovementPct float64 `json:"improvement_pct"`
	// Stats is the full simulator statistics block, with the
	// nondeterministic WallNanos field zeroed so identical requests
	// produce byte-identical responses.
	Stats sim.RunStats `json:"stats"`
}

// RunResponse is the body of a successful POST /v1/run and of
// GET /v1/results/{key}.
type RunResponse struct {
	Key       string          `json:"key"`
	Workload  string          `json:"workload"`
	Class     string          `json:"class"`
	Config    string          `json:"config"`
	Mechanism string          `json:"mechanism"`
	Versions  []VersionResult `json:"versions"`
}

// SweepResult is one (config, mechanism) slice of a sweep response.
type SweepResult struct {
	Config    string        `json:"config"`
	Mechanism string        `json:"mechanism"`
	Rows      []RunResponse `json:"rows"`
	// AvgImprovementPct maps version name to the arithmetic-mean
	// improvement across the sweep's workloads; ClassAvgImprovementPct
	// splits it by benchmark class (classes with no workloads in the
	// sweep are omitted).
	AvgImprovementPct      map[string]float64            `json:"avg_improvement_pct"`
	ClassAvgImprovementPct map[string]map[string]float64 `json:"class_avg_improvement_pct"`
	// Pruned lists workloads estimate_top dropped (request order);
	// present only when the request set estimate_top. Averages cover the
	// simulated rows only.
	Pruned []string `json:"pruned,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Sweeps []SweepResult `json:"sweeps"`
}

// WorkloadInfo is one entry of GET /v1/workloads.
type WorkloadInfo struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	Models string `json:"models"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// StoredResult is the cached value behind a key: the resolved spec plus
// the executed row. It is also the on-disk persistence format
// (<key>.json under -cachedir) and the unit a cluster coordinator moves
// between nodes.
type StoredResult struct {
	Spec Spec            `json:"spec"`
	Row  experiments.Row `json:"row"`
}

// Response renders the stored result as the wire shape, optionally
// filtered to a single version (empty: all five). The row's WallNanos
// are zeroed by the executor before caching, so rendering is
// deterministic.
func (sr StoredResult) Response(version string) RunResponse {
	resp := RunResponse{
		Key:       sr.Spec.Key(),
		Workload:  sr.Spec.Workload,
		Class:     sr.Row.Class.String(),
		Config:    sr.Spec.Config,
		Mechanism: sr.Spec.Mechanism,
	}
	for _, v := range core.Versions() {
		if version != "" && v.String() != version {
			continue
		}
		resp.Versions = append(resp.Versions, VersionResult{
			Version:        v.String(),
			Cycles:         sr.Row.Cycles[v],
			ImprovementPct: sr.Row.Improv[v],
			Stats:          sr.Row.Stats[v],
		})
	}
	return resp
}

// versionKnown reports whether sel names a simulated version.
func versionKnown(sel string) bool {
	for _, v := range core.Versions() {
		if sel == v.String() {
			return true
		}
	}
	return false
}
