package oracle

import (
	"strings"
	"testing"

	"selcache/internal/cache"
	"selcache/internal/core"
	"selcache/internal/loopir"
	"selcache/internal/mem"
	"selcache/internal/sim"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

// synthetic drives an emitter with a deterministic pseudorandom mix of
// sequential runs, strides, and random accesses over a footprint larger
// than L2, with ~30% stores — enough churn to exercise evictions, dirty
// write-backs, victim swaps, bypasses, prefetches, TLB misses and MLP
// saturation. Markers (when asked for) strictly alternate starting ON.
func synthetic(em mem.Emitter, seed uint64, events int, markers bool) {
	s := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s * 0x2545F4914F6CDD1D
	}
	const base = 0x10000
	const footprint = 1 << 21 // 2 MB: past the 512 KB L2
	addr := mem.Addr(base)
	on := false
	for i := 0; i < events; i++ {
		r := next()
		switch r % 100 {
		case 0, 1:
			em.Compute(int(r>>32%13) + 1)
			continue
		case 2:
			if markers {
				on = !on
				em.Marker(on)
				continue
			}
		}
		switch (r >> 8) % 4 {
		case 0: // sequential run
			addr += 8
		case 1: // stride
			addr += mem.Addr(64 * ((r>>16)%8 + 1))
		default: // random jump
			addr = mem.Addr(base + (r>>16)%footprint)
		}
		addr = base + (addr-base)%footprint
		em.Access(addr&^7, 8, (r>>24)%10 < 3)
	}
	if markers && on {
		em.Marker(false)
	}
}

// shadowOpts enumerates the option sets worth shadowing: every mechanism,
// marker-driven selective operation, the learn-while-off ablation, and
// miss classification.
func shadowOpts() map[string]sim.Options {
	return map[string]sim.Options{
		"none":              {Mechanism: sim.HWNone},
		"bypass":            {Mechanism: sim.HWBypass, InitiallyOn: true},
		"victim":            {Mechanism: sim.HWVictim, InitiallyOn: true},
		"bypass-selective":  {Mechanism: sim.HWBypass, HonorMarkers: true},
		"victim-selective":  {Mechanism: sim.HWVictim, HonorMarkers: true},
		"bypass-learn-off":  {Mechanism: sim.HWBypass, HonorMarkers: true, UpdateWhenOff: true},
		"classified-none":   {Mechanism: sim.HWNone, Classify: true},
		"classified-bypass": {Mechanism: sim.HWBypass, InitiallyOn: true, Classify: true},
	}
}

func TestShadowCleanOnSyntheticStreams(t *testing.T) {
	events := 60000
	if testing.Short() {
		events = 15000
	}
	for name, opt := range shadowOpts() {
		opt := opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := NewShadow(sim.Base(), opt)
			s.CheckEvery = 512
			synthetic(s, 42, events, opt.HonorMarkers)
			if _, err := s.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShadowCleanOnVariantConfigs covers the paper's non-base machine
// configurations (different latencies, sizes, associativities).
func TestShadowCleanOnVariantConfigs(t *testing.T) {
	events := 30000
	if testing.Short() {
		events = 8000
	}
	for _, cfg := range sim.ExperimentConfigs()[1:] {
		cfg := cfg
		for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
			mech := mech
			t.Run(cfg.Name+"/"+mech.String(), func(t *testing.T) {
				t.Parallel()
				s := NewShadow(cfg, sim.Options{Mechanism: mech, InitiallyOn: true})
				s.CheckEvery = 1024
				synthetic(s, 7, events, false)
				if _, err := s.Finish(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestShadowCleanOnWorkload runs one real benchmark through the full
// lockstep check for every version (the full matrix lives in
// cmd/validate).
func TestShadowCleanOnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("workload lockstep run in -short mode (cmd/validate covers the matrix)")
	}
	w, ok := workloads.ByName("applu")
	if !ok {
		t.Fatal("workload applu missing")
	}
	o := core.DefaultOptions()
	for _, v := range core.Versions() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			prog, _, _ := core.Prepare(w.Build, v, o)
			s := NewShadow(o.Machine, core.SimOptions(v, o))
			loopir.Run(prog, s)
			if _, err := s.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShadowDetectsInjectedFault corrupts the engine's accounting behind
// the shadow's back and checks that the very next event is reported, with
// the trace-differ-style rendering intact.
func TestShadowDetectsInjectedFault(t *testing.T) {
	s := NewShadow(sim.Base(), sim.Options{Mechanism: sim.HWNone})
	synthetic(s, 3, 500, false)
	if s.Divergence() != nil {
		t.Fatalf("clean stream diverged early: %v", s.Divergence())
	}
	s.Engine().Compute(1) // skew: the reference never sees this
	s.Access(0x10008, 8, false)
	div := s.Divergence()
	if div == nil {
		t.Fatal("injected fault not detected")
	}
	if div.Field != "cycles" && div.Field != "instructions" {
		t.Fatalf("unexpected field %q", div.Field)
	}
	msg := div.Error()
	for _, want := range []string{"divergence at event", "load 8 bytes @ 0x10008", "engine=", "reference="} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence message %q missing %q", msg, want)
		}
	}
	// Latched: later events keep the first report.
	s.Access(0x20000, 8, true)
	if s.Divergence() != div {
		t.Error("first divergence not latched")
	}
	if _, err := s.Finish(); err == nil {
		t.Error("Finish did not surface the divergence")
	}
}

// TestShadowDetectsDeepStateFault corrupts cache *state* (not accounting)
// and checks the periodic deep comparison catches it even though scalars
// stay equal for a while.
func TestShadowDetectsDeepStateFault(t *testing.T) {
	s := NewShadow(sim.Base(), sim.Options{Mechanism: sim.HWNone})
	s.CheckEvery = 64
	synthetic(s, 5, 200, false)
	// Flip recency in the reference L1 only: swap MRU and LRU of a
	// populated set. Stats remain identical until an eviction order
	// difference shows up — the deep check must flag content sooner.
	var set []refLine
	for _, cand := range s.ref.l1.sets {
		if len(cand) >= 2 {
			set = cand
			break
		}
	}
	if set == nil {
		t.Fatal("no populated set")
	}
	set[0], set[len(set)-1] = set[len(set)-1], set[0]
	synthetic(s, 6, 200, false)
	div := s.Divergence()
	if div == nil {
		t.Fatal("deep state fault not detected")
	}
	if !strings.Contains(div.Field, "content") && div.Field != "L1 stats" && div.Field != "cycles" {
		t.Fatalf("unexpected field %q", div.Field)
	}
}

func TestShadowFlagsMarkerProtocolViolation(t *testing.T) {
	s := NewShadow(sim.Base(), sim.Options{Mechanism: sim.HWBypass, HonorMarkers: true})
	s.Marker(true)
	s.Marker(true)
	div := s.Divergence()
	if div == nil || div.Field != "marker balance" {
		t.Fatalf("consecutive ON markers not flagged: %+v", div)
	}
}

func TestNewMachineRejectsNonPowerOfTwoWidths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for IssueWidth 3")
		}
	}()
	cfg := sim.Base()
	cfg.IssueWidth = 3
	NewMachine(cfg, sim.Options{})
}

func TestCheckStatsRejectsInconsistencies(t *testing.T) {
	base := func() sim.RunStats {
		return sim.RunStats{
			Cycles:       100,
			Instructions: 50,
			MemOps:       20,
			L1:           cache.Stats{Accesses: 20, Hits: 15, Misses: 5},
			L2:           cache.Stats{Accesses: 5, Hits: 3, Misses: 2},
			TLB:          sim.TLBStats{Accesses: 20, Misses: 1},
		}
	}
	if err := CheckStats(base()); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	cases := map[string]func(*sim.RunStats){
		"hits+misses":     func(s *sim.RunStats) { s.L1.Hits = 99 },
		"dirty evictions": func(s *sim.RunStats) { s.L1.Evictions = 1; s.L1.DirtyEvictions = 2 },
		"tlb misses":      func(s *sim.RunStats) { s.TLB.Misses = s.TLB.Accesses + 1 },
		"victim hits":     func(s *sim.RunStats) { s.Victim1.Probes = 1; s.Victim1.Hits = 2 },
		"buffer hits":     func(s *sim.RunStats) { s.Buffer.Probes = 1; s.Buffer.Hits = 2 },
		"classified":      func(s *sim.RunStats) { s.L1Class.Conflict = 3 },
		"memops":          func(s *sim.RunStats) { s.MemOps = 60 },
		"on cycles":       func(s *sim.RunStats) { s.OnCycles = 101 },
		"zero cycles":     func(s *sim.RunStats) { s.Cycles = 0 },
	}
	for name, corrupt := range cases {
		st := base()
		corrupt(&st)
		if err := CheckStats(st); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestCheckMarkerAlternation(t *testing.T) {
	record := func(drive func(mem.Emitter)) *trace.Trace {
		r := trace.NewRecorder()
		drive(r)
		return r.Trace()
	}
	good := record(func(em mem.Emitter) {
		em.Compute(3)
		em.Marker(true)
		em.Access(0x10000, 8, false)
		em.Marker(false)
		em.Marker(true)
		em.Marker(false)
	})
	if err := CheckMarkerAlternation(good); err != nil {
		t.Fatalf("balanced trace rejected: %v", err)
	}
	doubleOn := record(func(em mem.Emitter) {
		em.Marker(true)
		em.Compute(1)
		em.Marker(true)
	})
	if err := CheckMarkerAlternation(doubleOn); err == nil {
		t.Error("consecutive ONs accepted")
	}
	offFirst := record(func(em mem.Emitter) { em.Marker(false) })
	if err := CheckMarkerAlternation(offFirst); err == nil {
		t.Error("leading OFF accepted")
	}
}

func TestCheckMATBounds(t *testing.T) {
	cfg := sim.Options{}.WithDefaults().MAT
	entries := newRefMAT(cfg).snapshot()
	if err := CheckMATBounds(entries, cfg); err != nil {
		t.Fatalf("fresh table rejected: %v", err)
	}
	entries[3].Counter = cfg.CounterMax + 1
	if err := CheckMATBounds(entries, cfg); err == nil {
		t.Error("overflowed counter accepted")
	}
}

// TestRefFAConservation hammers the reference FA with pseudorandom
// operations and checks the insert/take/evict conservation invariant
// after every step.
func TestRefFAConservation(t *testing.T) {
	f := newRefFA(8)
	s := uint64(99)
	for i := 0; i < 5000; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		key := s % 24
		switch s >> 32 % 3 {
		case 0:
			f.insert(key, s>>48%2 == 0)
		case 1:
			f.probe(key, false)
		default:
			f.take(key)
		}
		if err := f.conservation(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if len(f.entries) > 8 {
			t.Fatalf("op %d: %d entries exceed capacity", i, len(f.entries))
		}
	}
	if f.newInserts == 0 || f.takes == 0 || f.evictions == 0 {
		t.Fatalf("weak coverage: %+v", f)
	}
}
