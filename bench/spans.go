package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by a traced run around a
// public function of that layer. Spans of one operation form a tree through
// Parent; spans of one served request share Req.
type span struct {
	ID, Parent int64
	Req        int64
	Name       string
	Track      int
	Start, End time.Duration // since the recorder's origin
	Attrs      map[string]any
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name up to its first dot: the package the call enters.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// attrLayer names the integer attributes that carry a share of a span's
// own time belonging to another layer: replay spans time trace decoding
// separately from the simulator per block, and live run spans carry the
// interpreter's share measured without the simulator.
var attrLayer = map[string]string{"decode_ns": "trace", "interp_ns": "loopir"}

// spanRec keeps a traced run's spans in memory until the run ends. A nil
// *spanRec records nothing, so untraced code paths can share helpers.
type spanRec struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanRec() *spanRec { return &spanRec{origin: time.Now()} }

// tok is an open span.
type tok struct {
	id, parent, req int64
	track           int
	name            string
	start           time.Time
}

// root opens a span with no parent.
func (r *spanRec) root(track int, req int64, name string) tok {
	if r == nil {
		return tok{}
	}
	return tok{id: r.nextID.Add(1), req: req, track: track, name: name, start: time.Now()}
}

// child opens a span under p, on p's track and request.
func (r *spanRec) child(p tok, name string) tok {
	if r == nil {
		return tok{}
	}
	return tok{id: r.nextID.Add(1), parent: p.id, req: p.req, track: p.track, name: name, start: time.Now()}
}

// end closes t with optional attributes.
func (r *spanRec) end(t tok, attrs map[string]any) {
	if r == nil {
		return
	}
	now := time.Now()
	s := span{ID: t.id, Parent: t.parent, Req: t.req, Name: t.name, Track: t.track,
		Start: t.start.Sub(r.origin), End: now.Sub(r.origin), Attrs: attrs}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *spanRec) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// attrInt reads an int64 attribute (0 when absent).
func attrInt(s span, key string) int64 {
	v, _ := s.Attrs[key].(int64)
	return v
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are merged
// first, so concurrent children are not subtracted twice.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// attribution is the per-layer split of the busy time of a traced run's
// operations.
type attribution struct {
	busy time.Duration            // summed duration of the operation roots
	self map[string]time.Duration // self time per layer, over the roots' trees
}

// attribute sums self time per layer over every span tree whose root is
// named rootName. A span's attrLayer attributes move that much of its self
// time to the named layer.
func attribute(spans []span, rootName string) attribution {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	inOp := func(s span) bool {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return false
			}
			s = p
		}
		return s.Name == rootName
	}
	self := selfTimes(spans)
	a := attribution{self: map[string]time.Duration{}}
	for _, s := range spans {
		if !inOp(s) {
			continue
		}
		if s.Parent == 0 {
			a.busy += s.dur()
		}
		own := self[s.ID]
		for key, layer := range attrLayer {
			moved := time.Duration(attrInt(s, key))
			a.self[layer] += moved
			own -= moved
		}
		a.self[s.layer()] += own
	}
	return a
}

// reconcile checks that the layers account for the operations' busy time:
// the per-layer self times must add up to it within tol, and the time no
// layer span covers (the operation roots' own self time, layer "bench")
// must stay below tol of it. The error names the unattributed remainder.
func (a attribution) reconcile(tol float64) error {
	if a.busy <= 0 {
		return fmt.Errorf("reconcile: no traced operations")
	}
	var sum time.Duration
	for _, d := range a.self {
		sum += d
	}
	busy := float64(a.busy)
	if gap := float64(sum-a.busy) / busy; gap > tol || gap < -tol {
		return fmt.Errorf("reconcile: layer self times sum to %v, busy time is %v (%.1f%% apart)", sum, a.busy, 100*gap)
	}
	if un := float64(a.self["bench"]) / busy; un > tol {
		return fmt.Errorf("reconcile: %.1f%% of busy time (%v) is unattributed: spent in the benchmark's own code between layer calls",
			100*un, a.self["bench"])
	}
	return nil
}

// frac is a layer's share of the busy time.
func (a attribution) frac(layer string) float64 {
	if a.busy <= 0 {
		return 0
	}
	return float64(a.self[layer]) / float64(a.busy)
}

// writeChrome writes spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly. The span's id, parent, request id and attributes go into
// each event's args.
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Track, Args: args,
		})
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
