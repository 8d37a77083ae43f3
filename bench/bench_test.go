package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"selcache/internal/core"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{35, 20, 50, 15, 40}
	for _, c := range []struct{ p, want float64 }{
		{1, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {80, 40}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 35 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7, 1, 4, 9}, 1.75, 8.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestWindowMedian(t *testing.T) {
	var xs []float64
	var win []int
	for i := 1; i <= 100; i++ { // window 0: p99 = 99
		xs, win = append(xs, float64(i)), append(win, 0)
	}
	for i := 201; i <= 300; i++ { // window 3: p99 = 299
		xs, win = append(xs, float64(i)), append(win, 3)
	}
	for i := 1; i <= 3; i++ { // window 1: p99 = 3
		xs, win = append(xs, float64(i)), append(win, 1)
	}
	if got := windowMedian(xs, win, 99); got != 99 {
		t.Errorf("windowMedian = %v, want 99 (median of 99, 3, 299)", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// A parent [0,100] with adjacent children A [10,30] and B [30,50], C
// [40,60] overlapping B, D [90,120] running past the parent's end, and a
// grandchild [15,20] under A.
func TestSelfTimeNestedAndAdjacent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "sim.a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "sim.b", Start: ms(30), End: ms(50)},
		{ID: 4, Parent: 1, Name: "trace.c", Start: ms(40), End: ms(60)},
		{ID: 5, Parent: 1, Name: "opt.d", Start: ms(90), End: ms(120)},
		{ID: 6, Parent: 2, Name: "loopir.e", Start: ms(15), End: ms(20)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: ms(40), 2: ms(15), 3: ms(20), 4: ms(20), 5: ms(30), 6: ms(5)} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
}

func TestAttributeMovesAttrTimeAndReconciles(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "sim.replay", Start: ms(2), End: ms(98),
			Attrs: map[string]any{"decode_ns": int64(ms(16))}},
		{ID: 3, Name: "setup.stream", Start: 0, End: ms(500)}, // not an operation
	}
	a := attribute(spans, "bench.op")
	if a.busy != ms(100) || a.self["sim"] != ms(80) || a.self["trace"] != ms(16) || a.self["bench"] != ms(4) {
		t.Fatalf("attribution = busy %v, self %v", a.busy, a.self)
	}
	if err := a.reconcile(0.10); err != nil {
		t.Errorf("reconcile: %v", err)
	}
	spans[1].Start = ms(20) // 22 ms of the operation is now outside any layer
	if err := attribute(spans, "bench.op").reconcile(0.10); err == nil || !strings.Contains(err.Error(), "unattributed") {
		t.Errorf("reconcile = %v, want an unattributed-time error", err)
	}
}

func TestServePlanDeterminism(t *testing.T) {
	a, b := buildServePlan(1, 2*time.Second), buildServePlan(1, 2*time.Second)
	if a.digest != b.digest || len(a.reqs) != len(b.reqs) {
		t.Errorf("same seed: digests %s and %s", a.digest, b.digest)
	}
	if c := buildServePlan(2, 2*time.Second); c.digest == a.digest {
		t.Errorf("seeds 1 and 2 give the same plan digest %s", a.digest)
	}
	if n := len(a.reqs); n < 1800 || n > 2200 {
		t.Errorf("2 s at %d/s gave %d requests", serveRate, n)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 102}
	for _, c := range []struct {
		head  []float64
		lower bool
		want  string
	}{
		{[]float64{115, 116, 117}, true, "regressed"},
		{[]float64{104, 105, 106}, true, "ok"},
		{[]float64{97, 98, 99}, true, "ok"},
		{[]float64{85, 86, 87}, false, "regressed"},
		{[]float64{60, 100, 140}, true, "unresolved"},
	} {
		if got, _ := verdict(base, c.head, c.lower, 0.10); got != c.want {
			t.Errorf("verdict(%v, lower=%v) = %s, want %s", c.head, c.lower, got, c.want)
		}
	}
}

// BENCHMARK.json and the metrics the runs emit must list the same names
// and units, within the declared limits.
func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	var spec benchmarkSpec
	if err := loadJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, declared []metricDef, names, units []string) {
		if len(names) != len(declared) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the runs emit %d", kind, len(names), len(declared))
		}
		for i := range names {
			if !nameRE.MatchString(names[i]) || seen[names[i]] {
				t.Errorf("%s: bad or repeated name %q", kind, names[i])
			}
			seen[names[i]] = true
			if i < len(declared) && (declared[i].name != names[i] || declared[i].unit != units[i]) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the runs emit %s [%s]", kind, i, names[i], units[i], declared[i].name, declared[i].unit)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	check("end_to_end", e2eMetrics, names, units)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", layerMetrics, names, units)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; limits are 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, workloadNames)
	}

	o := newOutcome()
	for _, d := range e2eMetrics {
		o.metrics[d.name] = 1
	}
	res, err := buildResult(o, false)
	if err != nil || len(res.Metrics) != len(e2eMetrics) {
		t.Errorf("buildResult = %d metrics, %v", len(res.Metrics), err)
	}
	delete(o.metrics, "p50_ms")
	if _, err := buildResult(o, false); err == nil {
		t.Error("buildResult accepted a run that measured no p50_ms")
	}
	o.metrics["p50_ms"], o.metrics["undeclared"] = 1, 1
	if _, err := buildResult(o, false); err == nil {
		t.Error("buildResult accepted an undeclared metric")
	}
}

// The committed Table 3 golden cells must render the committed Table 3.
func TestTable3GoldenRendersCommittedTable(t *testing.T) {
	var cells []table3Cell
	if err := loadGolden("table3.json", &cells); err != nil {
		t.Fatal(err)
	}
	if err := checkTable3Render("..", cells); err != nil {
		t.Fatal(err)
	}
	cells[0].Cycles[core.PureSoftware] /= 2
	if err := checkTable3Render("..", cells); err == nil {
		t.Error("a changed golden cycle count still rendered the committed Table 3")
	}
}

func TestSpansWriteChromeJSON(t *testing.T) {
	rec := newSpanRec()
	root := rec.root(0, 7, "bench.op")
	rec.end(rec.child(root, "sim.finish"), map[string]any{"events": int64(3)})
	rec.end(root, nil)
	path := t.TempDir() + "/spans.json"
	if err := writeChrome(path, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "sim.finish" || doc.TraceEvents[0].Ph != "X" ||
		doc.TraceEvents[0].Args["req"] != float64(7) || doc.TraceEvents[0].Args["events"] != float64(3) {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

// A timed closed loop measures whole passes: every index below the final
// limit runs exactly once and nothing past it is counted.
func TestClosedLoopRunsWholePasses(t *testing.T) {
	const pass = 7
	var mu sync.Mutex
	ran := map[int]int{}
	rec := newSpanRec()
	op := func(wk, i int) any {
		rec.end(rec.root(wk, int64(i), "bench.op"), nil)
		time.Sleep(time.Millisecond)
		mu.Lock()
		ran[i]++
		mu.Unlock()
		return i
	}
	verify := func(i int, out any) error {
		if out.(int) != i {
			return fmt.Errorf("op %d returned %v", i, out)
		}
		return nil
	}
	res := closedLoop(1000, pass, 20*time.Millisecond, op, verify)
	n := len(res.ops)
	if n == 0 || n%pass != 0 {
		t.Fatalf("timed loop counted %d operations, want a positive multiple of %d", n, pass)
	}
	for i := 0; i < n; i++ {
		if ran[i] != 1 {
			t.Errorf("operation %d ran %d times", i, ran[i])
		}
	}
	for _, r := range res.ops {
		if r.err != nil || r.end > res.wall {
			t.Errorf("op record %+v, wall %v", r, res.wall)
		}
	}
	if fixed := closedLoop(9, 1, 0, op, func(int, any) error { return nil }); len(fixed.ops) != 9 {
		t.Errorf("fixed loop ran %d operations, want 9", len(fixed.ops))
	}
	if got := len(rec.snapshot()); got < n+9 {
		t.Errorf("%d spans recorded, want at least %d", got, n+9)
	}
}
