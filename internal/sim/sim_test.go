package sim

import (
	"testing"

	"selcache/internal/mem"
)

func base() Config { return Base() }

func newM(mech HWKind, on bool) *Machine {
	return NewMachine(base(), Options{
		Mechanism:    mech,
		InitiallyOn:  on,
		HonorMarkers: true,
	})
}

func TestComputeAdvancesByIssueWidth(t *testing.T) {
	m := newM(HWNone, false)
	m.Compute(400)
	st := m.Finish()
	if st.Cycles != 100 {
		t.Fatalf("400 instructions at width 4 took %d cycles", st.Cycles)
	}
	if st.Instructions != 400 {
		t.Fatalf("instructions %d", st.Instructions)
	}
}

func TestHitsCheaperThanMisses(t *testing.T) {
	m1 := newM(HWNone, false)
	for i := 0; i < 1000; i++ {
		m1.Access(0x1000, 8, false) // same block: one miss then hits
	}
	hitCycles := m1.Finish().Cycles

	m2 := newM(HWNone, false)
	for i := 0; i < 1000; i++ {
		m2.Access(mem.Addr(0x1000+i*4096), 8, false) // all misses
	}
	missCycles := m2.Finish().Cycles
	if missCycles < hitCycles*5 {
		t.Fatalf("miss stream %d cycles vs hit stream %d", missCycles, hitCycles)
	}
}

func TestL2FasterThanMemory(t *testing.T) {
	// Touch a working set larger than L1 but inside L2 twice; the second
	// pass should be much faster than the first (memory vs L2 latency).
	m := newM(HWNone, false)
	const blocks = 2048 // 64 KB of 32-byte blocks: 2x L1, well inside L2
	pass := func() uint64 {
		start := m.Finish().Cycles
		for i := 0; i < blocks; i++ {
			m.Access(mem.Addr(0x10000+i*32), 8, false)
		}
		return m.Finish().Cycles - start
	}
	first := pass()
	second := pass()
	if second*2 > first {
		t.Fatalf("L2 pass %d cycles vs memory pass %d", second, first)
	}
}

func TestMarkerTogglesMechanism(t *testing.T) {
	m := newM(HWBypass, false)
	if m.HWActive() {
		t.Fatal("mechanism active before ON")
	}
	m.Marker(true)
	if !m.HWActive() {
		t.Fatal("ON marker ignored")
	}
	m.Marker(false)
	if m.HWActive() {
		t.Fatal("OFF marker ignored")
	}
}

func TestMarkersIgnoredWhenNotHonored(t *testing.T) {
	m := NewMachine(base(), Options{Mechanism: HWBypass, InitiallyOn: true, HonorMarkers: false})
	m.Marker(false)
	if !m.HWActive() {
		t.Fatal("combined mode obeyed an OFF marker")
	}
	st := m.Finish()
	if st.Markers != 1 {
		t.Fatalf("marker not counted: %d", st.Markers)
	}
}

func TestMechanismOffMatchesNone(t *testing.T) {
	// With the flag off and tables frozen, a bypass machine must produce
	// exactly the cycles of a machine with no mechanism at all (plus
	// nothing: no markers executed here).
	drive := func(m *Machine) uint64 {
		x := uint64(99)
		for i := 0; i < 20000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			m.Access(mem.Addr(x>>40), 8, i%3 == 0)
			m.Compute(3)
		}
		return m.Finish().Cycles
	}
	plain := drive(NewMachine(base(), Options{Mechanism: HWNone}))
	frozen := drive(NewMachine(base(), Options{Mechanism: HWBypass, InitiallyOn: false, HonorMarkers: true}))
	if plain != frozen {
		t.Fatalf("off-bypass machine %d cycles, plain %d", frozen, plain)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() RunStats {
		m := NewMachine(base(), Options{Mechanism: HWBypass, InitiallyOn: true})
		x := uint64(7)
		for i := 0; i < 50000; i++ {
			x = x*2862933555777941757 + 3037000493
			m.Access(mem.Addr(x>>38), 8, i%4 == 0)
			if i%7 == 0 {
				m.Compute(5)
			}
		}
		return m.Finish()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestVictimCacheRescuesConflicts(t *testing.T) {
	// Ping-pong over assoc+1 blocks of one set: thrashes a 4-way L1 but
	// fits easily in the 64-entry victim cache.
	drive := func(mech HWKind) RunStats {
		m := NewMachine(base(), Options{Mechanism: mech, InitiallyOn: true})
		setSpan := 32 * 256 // block * sets
		for r := 0; r < 2000; r++ {
			for w := 0; w < 5; w++ {
				m.Access(mem.Addr(0x10000+w*setSpan), 8, false)
			}
		}
		return m.Finish()
	}
	plain := drive(HWNone)
	victim := drive(HWVictim)
	if victim.Cycles >= plain.Cycles {
		t.Fatalf("victim cache did not help a conflict ping-pong: %d vs %d",
			victim.Cycles, plain.Cycles)
	}
	if victim.Victim1.Hits == 0 {
		t.Fatal("no victim hits recorded")
	}
}

func TestBypassProtectsHotSet(t *testing.T) {
	// A hot set of blocks revisited constantly, interleaved with a long
	// cold stream: the bypass mechanism should beat the plain machine.
	drive := func(mech HWKind) RunStats {
		m := NewMachine(base(), Options{Mechanism: mech, InitiallyOn: true})
		x := uint64(3)
		cold := 0x40_0000
		for r := 0; r < 30000; r++ {
			// Hot probes (30 KB region, random: fills the L1 almost
			// exactly, so stream pollution evicts hot lines).
			for k := 0; k < 4; k++ {
				x = x*6364136223846793005 + 1442695040888963407
				m.Access(mem.Addr(0x10000+(x>>45)%30720), 8, false)
			}
			// Cold stream writes.
			for k := 0; k < 8; k++ {
				m.Access(mem.Addr(cold), 8, true)
				cold += 8
			}
		}
		return m.Finish()
	}
	plain := drive(HWNone)
	bypass := drive(HWBypass)
	if bypass.Cycles >= plain.Cycles {
		t.Fatalf("bypass did not protect the hot set: %d vs %d cycles",
			bypass.Cycles, plain.Cycles)
	}
	if bypass.Bypasses == 0 {
		t.Fatal("no bypasses recorded")
	}
}

func TestTLBMissesCost(t *testing.T) {
	m1 := newM(HWNone, false)
	for i := 0; i < 1000; i++ {
		m1.Access(mem.Addr(0x100000+i*8), 8, false) // two pages
	}
	fewTLB := m1.Finish()

	m2 := newM(HWNone, false)
	for i := 0; i < 1000; i++ {
		m2.Access(mem.Addr(0x100000+i*4096*17), 8, false) // all TLB misses
	}
	manyTLB := m2.Finish()
	if manyTLB.TLB.Misses <= fewTLB.TLB.Misses {
		t.Fatal("page-stride stream did not miss the TLB more")
	}
	if manyTLB.Cycles <= fewTLB.Cycles {
		t.Fatal("TLB misses cost nothing")
	}
}

func TestExperimentConfigs(t *testing.T) {
	cfgs := ExperimentConfigs()
	if len(cfgs) != 6 {
		t.Fatalf("%d configs", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		names[c.Name] = true
	}
	for _, want := range []string{"base", "higher-mem-lat", "larger-l2", "larger-l1", "higher-l2-assoc", "higher-l1-assoc"} {
		if !names[want] {
			t.Errorf("missing config %q", want)
		}
	}
	if cfgs[1].MemLat != 200 || cfgs[2].L2.Size != 1<<20 || cfgs[3].L1.Size != 64<<10 ||
		cfgs[4].L2.Assoc != 8 || cfgs[5].L1.Assoc != 8 {
		t.Fatal("variant parameters wrong")
	}
}

// TestByNameInvertsNames: each lookup returns the value whose name it is
// given and rejects everything else; HWNone is not selectable by name.
func TestByNameInvertsNames(t *testing.T) {
	for _, c := range ExperimentConfigs() {
		if got, ok := ConfigByName(c.Name); !ok || got != c {
			t.Errorf("ConfigByName(%q) = %q, %v", c.Name, got.Name, ok)
		}
	}
	for _, k := range []HWKind{HWBypass, HWVictim} {
		if got, ok := MechanismByName(k.String()); !ok || got != k {
			t.Errorf("MechanismByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	for _, k := range []PolicyKind{PolicyLRU, PolicyEHC} {
		if got, ok := PolicyByName(k.String()); !ok || got != k {
			t.Errorf("PolicyByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	for _, bad := range []string{"", "none", "unknown", "Bypass", "both"} {
		if _, ok := ConfigByName(bad); ok {
			t.Errorf("ConfigByName(%q) accepted", bad)
		}
		if _, ok := MechanismByName(bad); ok {
			t.Errorf("MechanismByName(%q) accepted", bad)
		}
		if _, ok := PolicyByName(bad); ok {
			t.Errorf("PolicyByName(%q) accepted", bad)
		}
	}
}

func TestFinishIdempotentCycles(t *testing.T) {
	m := newM(HWNone, false)
	m.Access(0x5000, 8, false)
	a := m.Finish().Cycles
	b := m.Finish().Cycles
	if a != b {
		t.Fatalf("Finish not stable: %d then %d", a, b)
	}
}

func TestDirtyEvictionsChargeWritebacks(t *testing.T) {
	// Write a large region (dirtying lines), then stream another region
	// through to evict it: cycles must exceed the clean-read equivalent.
	drive := func(write bool) uint64 {
		m := newM(HWNone, false)
		for i := 0; i < 2048; i++ {
			m.Access(mem.Addr(0x10000+i*32), 8, write)
		}
		for i := 0; i < 4096; i++ {
			m.Access(mem.Addr(0x200000+i*32), 8, false)
		}
		return m.Finish().Cycles
	}
	clean := drive(false)
	dirty := drive(true)
	if dirty <= clean {
		t.Fatalf("dirty evictions free: %d vs %d cycles", dirty, clean)
	}
}

func TestSpatialPrefetchGatedByContention(t *testing.T) {
	// A single slow stream (all DRAM misses) keeps miss slots busy, so
	// the buddy fetch must be suppressed most of the time; sparse misses
	// with idle slots allow it.
	run := func(computePerAccess int) RunStats {
		m := NewMachine(base(), Options{Mechanism: HWBypass, InitiallyOn: true})
		for i := 0; i < 20000; i++ {
			m.Access(mem.Addr(0x100000+i*8), 8, false)
			m.Compute(computePerAccess)
		}
		return m.Finish()
	}
	busy := run(0)    // back-to-back misses
	sparse := run(64) // 16 cycles of compute between accesses
	if sparse.SpatialPrefetches <= busy.SpatialPrefetches {
		t.Fatalf("prefetches not gated by contention: busy=%d sparse=%d",
			busy.SpatialPrefetches, sparse.SpatialPrefetches)
	}
}

func TestUpdateWhenOffAblation(t *testing.T) {
	// With the ablation on, an off-mechanism machine still trains the
	// MAT; with the paper semantics it does not.
	drive := func(updateOff bool) RunStats {
		m := NewMachine(base(), Options{
			Mechanism: HWBypass, InitiallyOn: false,
			HonorMarkers: true, UpdateWhenOff: updateOff,
		})
		for i := 0; i < 1000; i++ {
			m.Access(mem.Addr(0x10000+i*8), 8, false)
		}
		return m.Finish()
	}
	frozen := drive(false)
	learning := drive(true)
	if frozen.MAT.Touches != 0 {
		t.Fatalf("frozen tables recorded %d touches", frozen.MAT.Touches)
	}
	if learning.MAT.Touches == 0 {
		t.Fatal("ablation did not keep the tables learning")
	}
}

func TestVictimMechanismFrozenWhenOff(t *testing.T) {
	m := NewMachine(base(), Options{Mechanism: HWVictim, InitiallyOn: false, HonorMarkers: true})
	for i := 0; i < 4096; i++ {
		m.Access(mem.Addr(0x10000+i*32), 8, false)
	}
	st := m.Finish()
	if st.Victim1.Probes != 0 || st.Victim1.Inserts != 0 {
		t.Fatalf("victim cache active while off: %+v", st.Victim1)
	}
}

func TestOnCyclesAccounting(t *testing.T) {
	m := NewMachine(base(), Options{Mechanism: HWBypass, InitiallyOn: false, HonorMarkers: true})
	m.Compute(4000)
	m.Marker(true)
	m.Compute(4000)
	m.Marker(false)
	m.Compute(4000)
	st := m.Finish()
	if st.OnCycles == 0 || st.OnCycles >= st.Cycles {
		t.Fatalf("on-cycles %d of %d total", st.OnCycles, st.Cycles)
	}
	// Roughly the middle third was active.
	if st.OnCycles < st.Cycles/4 || st.OnCycles > st.Cycles/2 {
		t.Fatalf("on-cycles %d not ~1/3 of %d", st.OnCycles, st.Cycles)
	}
}
