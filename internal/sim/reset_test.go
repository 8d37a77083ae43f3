package sim

import (
	"fmt"
	"reflect"
	"testing"

	"selcache/internal/cache"
	"selcache/internal/mat"
	"selcache/internal/mem"
)

// resetStream is a deterministic event mix that exercises every unit: a hot
// set that lives in L1, a stream that misses to memory, same-set strides
// that thrash L1 (victim-cache and bypass territory), writes, compute runs
// and marker toggles for the selective version.
func resetStream(events int) *mem.EventBlock {
	words := make([]uint64, events)
	x := uint64(12345)
	stream := mem.Addr(0x400000)
	for i := 0; i < events; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		r := x >> 33
		switch {
		case i%2000 == 1000:
			words[i] = mem.MarkerWord(true)
		case i%2000 == 1999:
			words[i] = mem.MarkerWord(false)
		case r%7 == 0:
			words[i] = mem.ComputeWord(1+r%5, 1+r%3)
		default:
			var a mem.Addr
			switch r % 4 {
			case 0, 1: // hot 16 KB
				a = mem.Addr(0x10000 + (r>>3)%(16<<10))
			case 2: // streaming
				stream += 8
				a = stream
			default: // one L1 set, many tags
				a = mem.Addr(0x800000 + ((r>>3)%24)*(8<<10))
			}
			words[i] = mem.AccessWord(a&^7, mem.AccessTag(8, r%4 == 1))
		}
	}
	b := mem.NewEventBlock(events)
	b.SetWindow(words)
	return b
}

// machineState is everything observable about a machine after a run: its
// statistics plus the snapshot of every component the oracle compares.
type machineState struct {
	Stats       RunStats
	Probe       Probe
	Outstanding []float64
	L1, L2      [][]cache.LineSnapshot
	Memo1       []cache.WayMemoSnapshot
	Memo2       []cache.WayMemoSnapshot
	EHC1, EHC2  [][]cache.EHCLineSnapshot
	Hist1       []cache.EHCHistSnapshot
	Hist2       []cache.EHCHistSnapshot
	TLB         [][]cache.LineSnapshot
	MAT         []mat.EntrySnapshot
	MATAge      uint64
	SLDT        []mat.SLDTEntrySnapshot
	Buffer      []cache.FASnapshot
	VC1, VC2    []cache.FASnapshot
	Classifiers bool
}

func snapshotMachine(m *Machine) machineState {
	c := m.Components()
	s := machineState{
		Stats:       m.Finish(),
		Probe:       m.Probe(),
		Outstanding: m.Outstanding(),
		L1:          c.L1.SnapshotSets(),
		L2:          c.L2.SnapshotSets(),
		Memo1:       c.L1.SnapshotWayMemo(),
		Memo2:       c.L2.SnapshotWayMemo(),
		TLB:         c.TLB.SnapshotSets(),
		Classifiers: c.Cls1 != nil,
	}
	s.EHC1, s.Hist1, _ = c.L1.SnapshotEHC()
	s.EHC2, s.Hist2, _ = c.L2.SnapshotEHC()
	if c.MAT != nil {
		s.MAT, s.MATAge = c.MAT.Snapshot(), c.MAT.SinceAge()
		s.SLDT, s.Buffer = c.SLDT.Snapshot(), c.Buffer.Snapshot()
	}
	if c.VC1 != nil {
		s.VC1, s.VC2 = c.VC1.Snapshot(), c.VC2.Snapshot()
	}
	return s
}

// resetVersions mirrors how core maps the five versions onto machine
// options (core.SimOptions): base and pure-software run without the
// mechanism, pure-hardware and combined keep it on, selective starts off
// and follows the markers.
func resetVersions(o Options, mech HWKind) []Options {
	none, on, sel := o, o, o
	none.Mechanism = HWNone
	on.Mechanism, on.InitiallyOn = mech, true
	sel.Mechanism, sel.HonorMarkers = mech, true
	return []Options{none, on, none, on, sel}
}

// TestResetMatchesNewMachine drives one machine through every experiment
// configuration, both mechanisms, both replacement policies and way memo
// off and on — five versions each, resetting between runs — and requires
// every run to end in exactly the state a fresh NewMachine reaches on the
// same events. The single machine sees every transition Reset must handle:
// geometry changes between configurations, a MAT configuration change,
// EHC and the way memo switched on and back off, classification toggled,
// and mechanism-less runs between bypass runs that reuse the MAT.
func TestResetMatchesNewMachine(t *testing.T) {
	b := resetStream(30000)
	small := mat.DefaultConfig()
	small.Entries = 1024
	reused := new(Machine)
	run := 0
	for _, cfg := range ExperimentConfigs() {
		for _, mech := range []HWKind{HWBypass, HWVictim} {
			for _, pol := range []PolicyKind{PolicyLRU, PolicyEHC} {
				for _, memo := range []bool{false, true} {
					o := Options{Policy: pol, WayMemo: memo, Energy: true, Classify: memo && pol == PolicyEHC}
					if pol == PolicyEHC && !memo {
						o.MAT = small
					}
					for vi, vo := range resetVersions(o, mech) {
						name := fmt.Sprintf("%s/%s/%s/memo=%v/v%d", cfg.Name, mech, pol, memo, vi)
						fresh := NewMachine(cfg, vo)
						reused.Reset(cfg, vo)
						// Alternate the scalar and batched entry points.
						if run%2 == 0 {
							b.Emit(fresh)
							b.Emit(reused)
						} else {
							fresh.EmitBlock(b)
							reused.EmitBlock(b)
						}
						run++
						want, got := snapshotMachine(fresh), snapshotMachine(reused)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s: reused machine diverges from a fresh one\nfresh: %+v\nreused: %+v", name, want.Stats, got.Stats)
						}
						if got.Stats.MemOps == 0 || got.Stats.L1.Misses == 0 {
							t.Fatalf("%s: stream exercised nothing: %+v", name, got.Stats)
						}
					}
				}
			}
		}
	}
}

// TestResetReusesTables pins the point of Reset: the cache, TLB and MAT
// tables survive a reset whose geometry and MAT configuration are
// unchanged, across mechanism-less runs in between, and are replaced when
// either changes.
func TestResetReusesTables(t *testing.T) {
	bypass := Options{Mechanism: HWBypass, InitiallyOn: true}
	m := NewMachine(Base(), bypass)
	l1, l2, dtlb, matT := m.l1, m.l2, m.dtlb, m.matT
	m.Reset(Base(), Options{})
	m.Reset(Base(), bypass)
	if m.l1 != l1 || m.l2 != l2 || m.dtlb != dtlb || m.matT != matT {
		t.Fatal("reset with unchanged geometry and MAT config reallocated a table")
	}
	other := bypass
	other.MAT = mat.DefaultConfig()
	other.MAT.Entries = 1024
	m.Reset(Base().WithL1Size(64<<10), other)
	if m.l1 == l1 || m.l2 != l2 || m.dtlb != dtlb || m.matT == matT {
		t.Fatal("reset kept a table whose geometry or configuration changed")
	}
	if got := m.l1.Config(); got != Base().WithL1Size(64<<10).L1 {
		t.Fatalf("L1 geometry %+v after reset", got)
	}
}
