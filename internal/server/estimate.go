// estimate.go is the zero-cost answer tier: POST /v1/estimate serves the
// symbolic locality estimator (internal/locality) directly on the request
// goroutine — no admission slot, no simulation, no cache entry needed,
// because an estimate costs microseconds and is a pure function of
// (workload, config). The same estimates let a sweep's estimate_top prune
// each slice to its predicted-interesting top N.
package server

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"selcache/internal/core"
	"selcache/internal/workloads"
)

// EstimateRequest is the body of POST /v1/estimate.
type EstimateRequest struct {
	// Workload is a benchmark name or a synthetic "family#seed" key.
	Workload string `json:"workload"`
	// Config is a machine-configuration name (default "base").
	Config string `json:"config,omitempty"`
}

// EstimateResponse is the body of a successful POST /v1/estimate: the
// static estimate of every program variant (five simulated versions plus
// PCOT), the verdict, and the predicted-best variant.
type EstimateResponse struct {
	Workload string `json:"workload"`
	Class    string `json:"class"`
	Config   string `json:"config"`
	// Verdict is the base variant's verdict — what the estimator can
	// promise about this workload at all.
	Verdict string `json:"verdict"`
	Reason  string `json:"reason,omitempty"`
	// Best names the variant with the lowest predicted cost (empty when
	// the estimator declined).
	Best     string                 `json:"best,omitempty"`
	Variants []core.VariantEstimate `json:"variants"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	s.metrics.request("estimate")
	// Estimates never queue behind simulations — a microsecond answer
	// stuck behind multi-second runs would defeat the tier — but they are
	// still admission-controlled: past the estimate concurrency bound the
	// request is shed immediately with a 1s Retry-After.
	if err := s.adm.acquireEstimate(); err != nil {
		s.failExec(w, err)
		return
	}
	defer s.adm.releaseEstimate()
	var req EstimateRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Config == "" {
		req.Config = "base"
	}
	wl, ok := workloads.Resolve(req.Workload)
	if !ok {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown workload %q", req.Workload))
		return
	}
	cfg, ok := configByName(req.Config)
	if !ok {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown config %q", req.Config))
		return
	}
	o := core.DefaultOptions()
	o.Machine = cfg

	start := time.Now()
	variants := core.EstimateVariants(wl.Build, o)
	resp := EstimateResponse{
		Workload: wl.Name,
		Class:    wl.Class.String(),
		Config:   req.Config,
		Verdict:  string(variants[0].Estimate.Verdict),
		Reason:   variants[0].Estimate.Reason,
		Best:     bestVariant(variants),
		Variants: variants,
	}
	s.metrics.estimateServed(resp.Verdict, time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// bestVariant names the lowest-predicted-cost variant; ties keep the
// earlier (simpler) variant. Declined estimates rank nothing.
func bestVariant(variants []core.VariantEstimate) string {
	best, bestCost := "", math.Inf(1)
	for _, ve := range variants {
		if ve.Estimate.Verdict == "declined" {
			continue
		}
		if ve.Estimate.Cost < bestCost {
			best, bestCost = ve.Name, ve.Estimate.Cost
		}
	}
	return best
}

// cellInterest scores how much simulating a (workload, config) cell is
// predicted to matter: the relative spread of predicted cost across the
// program variants. A cell whose variants all cost the same teaches a
// sweep nothing; one with a wide spread (or one the estimator declines —
// scored infinite) is where simulation earns its keep.
func cellInterest(build core.Builder, o core.Options) float64 {
	variants := core.EstimateVariants(build, o)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ve := range variants {
		if ve.Estimate.Verdict == "declined" {
			return math.Inf(1)
		}
		lo = math.Min(lo, ve.Estimate.Cost)
		hi = math.Max(hi, ve.Estimate.Cost)
	}
	if !(hi > 0) {
		return 0
	}
	return (hi - lo) / hi
}

// interestMemo caches cell interests for the duration of one sweep
// request ((workload, config) repeats across mechanisms — the estimator
// is mechanism-blind, so the score is shared).
type interestMemo struct {
	scores map[string]float64
}

func newInterestMemo() *interestMemo { return &interestMemo{scores: map[string]float64{}} }

func (m *interestMemo) interest(spec Spec, o core.Options) float64 {
	k := spec.Workload + "\x00" + spec.Config
	if v, ok := m.scores[k]; ok {
		return v
	}
	v := 0.0
	if wl, ok := workloads.Resolve(spec.Workload); ok {
		v = cellInterest(wl.Build, o)
	}
	m.scores[k] = v
	return v
}
