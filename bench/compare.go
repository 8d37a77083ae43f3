package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// byMetric groups run values by workload and metric name.
func byMetric(runs []runRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for n, m := range r.Result.Metrics {
			out[r.Workload][n] = append(out[r.Workload][n], m.Value)
		}
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// summarize prints each workload's metrics as median and quartiles over
// the runs, and returns one result whose metrics are the medians, named
// <workload>.<metric>.
func summarize(w io.Writer, runs []runRecord) result {
	agg := result{Correct: true, Metrics: map[string]metric{}}
	units := map[string]string{}
	for _, r := range runs {
		agg.Correct = agg.Correct && r.Result.Correct
		agg.Attempted += r.Result.Attempted
		agg.Failed += r.Result.Failed
		for n, m := range r.Result.Metrics {
			units[n] = m.Unit
		}
	}
	groups := byMetric(runs)
	for _, wl := range workloadNames {
		ms, ok := groups[wl]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl)
		fmt.Fprintf(w, "  %-36s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, n := range sortedKeys(ms) {
			xs := ms[n]
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "  %-36s %12.5g %12.5g %12.5g %7.1f%% %s\n", n, median(xs), q1, q3, 100*spread(xs), units[n])
			agg.Metrics[wl+"."+n] = metric{Value: median(xs), Unit: units[n]}
		}
	}
	return agg
}

// verdict compares head runs against base runs for one end-to-end metric,
// following the benchmark's rule: a regression is a head median worse
// than the base median by more than the bound; when either side's
// interquartile spread exceeds the bound the comparison is unresolved,
// unless every head run is better than every base run.
func verdict(base, head []float64, lowerBetter bool, bound float64) (string, float64) {
	mb, mh := median(base), median(head)
	worse := (mh - mb) / math.Abs(mb)
	if !lowerBetter {
		worse = -worse
	}
	better := func(h, b float64) bool { return (lowerBetter && h < b) || (!lowerBetter && h > b) }
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case allBetter:
		return "ok", worse
	case spread(base) > bound || spread(head) > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareFiles prints a verdict for every end-to-end metric of every
// workload in both files, and the per-layer medians side by side. It
// reports false when any metric regressed.
func compareFiles(w io.Writer, specPath, basePath, headPath string) (bool, error) {
	var spec benchmarkSpec
	var base, head runFile
	for path, v := range map[string]any{specPath: &spec, basePath: &base, headPath: &head} {
		if err := loadJSON(path, v); err != nil {
			return false, err
		}
	}
	if base.Seconds != head.Seconds || base.Trace != head.Trace || base.Seed != head.Seed {
		return false, fmt.Errorf("compare: base ran --seed %d --seconds %d --trace %d, head --seed %d --seconds %d --trace %d; settings must match",
			base.Seed, base.Seconds, base.Trace, head.Seed, head.Seconds, head.Trace)
	}
	bm, hm := byMetric(base.Runs), byMetric(head.Runs)
	ok := true
	fmt.Fprintf(w, "%-8s %-36s %12s %12s %8s %8s  %s\n", "workload", "metric", "base", "head", "worse", "bound", "verdict")
	for _, wl := range workloadNames {
		if bm[wl] == nil || hm[wl] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			b, h := bm[wl][m.Name], hm[wl][m.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, worse := verdict(b, h, m.Better == "lower", m.Bound)
			ok = ok && v != "regressed"
			fmt.Fprintf(w, "%-8s %-36s %12.5g %12.5g %7.1f%% %7.0f%%  %s\n", wl, m.Name, median(b), median(h), 100*worse, 100*m.Bound, v)
		}
		for _, m := range spec.PerLayer {
			b, h := bm[wl][m.Name], hm[wl][m.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-8s %-36s %12.5g %12.5g\n", wl, m.Name, median(b), median(h))
		}
	}
	return ok, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
