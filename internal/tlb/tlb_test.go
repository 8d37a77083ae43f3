package tlb

import (
	"errors"
	"reflect"
	"testing"

	"selcache/internal/mem"
)

func TestTranslateMissThenHit(t *testing.T) {
	tl := New(Config{Entries: 8, Assoc: 2, PageSize: 4096})
	if tl.Translate(0x1000) {
		t.Fatal("cold translation hit")
	}
	if !tl.Translate(0x1FFF) {
		t.Fatal("same-page translation missed")
	}
	if tl.Translate(0x2000) {
		t.Fatal("next page hit")
	}
	if tl.Stats.Accesses != 3 || tl.Stats.Misses != 2 {
		t.Fatalf("stats %+v", tl.Stats)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 4 sets x 2 ways; pages mapping to set 0 are 4 pages apart.
	tl := New(Config{Entries: 8, Assoc: 2, PageSize: 4096})
	page := func(n int) mem.Addr { return mem.Addr(n) * 4 * 4096 }
	tl.Translate(page(0))
	tl.Translate(page(1))
	tl.Translate(page(0)) // refresh 0; 1 is LRU
	tl.Translate(page(2)) // evicts 1
	if !tl.Translate(page(0)) {
		t.Fatal("refreshed page was evicted")
	}
	if tl.Translate(page(1)) {
		t.Fatal("evicted page still translated")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Entries: 0, Assoc: 1, PageSize: 4096},
		{Entries: 8, Assoc: 0, PageSize: 4096},
		{Entries: 8, Assoc: 2, PageSize: 1000},
		{Entries: 6, Assoc: 2, PageSize: 4096}, // 3 sets
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// TestAssocBound checks the packed layout's width limit: 16 ways build,
// 17 panic with ErrAssocTooWide.
func TestAssocBound(t *testing.T) {
	for _, tc := range []struct {
		assoc int
		ok    bool
	}{{16, true}, {17, false}} {
		func() {
			defer func() {
				r := recover()
				if err, _ := r.(error); tc.ok != (r == nil) || !tc.ok && !errors.Is(err, ErrAssocTooWide) {
					t.Fatalf("%d ways: New panicked with %v", tc.assoc, r)
				}
			}()
			tl := New(Config{Entries: 2 * tc.assoc, Assoc: tc.assoc, PageSize: 4096})
			for p := uint64(0); p < uint64(2*tc.assoc); p++ {
				tl.TranslatePage(p)
			}
			for p := uint64(0); p < uint64(2*tc.assoc); p++ {
				if !tl.TranslatePage(p) {
					t.Fatalf("%d ways: page %d evicted from a TLB that holds every page", tc.assoc, p)
				}
			}
		}()
	}
}

// TestTranslateMatchesLRUModel drives the packed-layout TLB and a naive
// per-set MRU list with the same pseudorandom page stream at every
// supported width: every hit result and the full SnapshotSets must agree
// after every translation, and the counters at the end. A Reset midway must return the TLB to the
// state New builds.
func TestTranslateMatchesLRUModel(t *testing.T) {
	const sets = 4
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		cfg := Config{Entries: sets * assoc, Assoc: assoc, PageSize: 4096}
		tl := New(cfg)
		model := make([][]uint64, sets)
		var st Stats
		pages := uint64(3 * sets * assoc)
		x := uint64(0x2545F4914F6CDD1D) + uint64(assoc)
		for step := 0; step < 20000; step++ {
			if step == 10000 {
				tl.Reset()
				model, st = make([][]uint64, sets), Stats{}
				if !reflect.DeepEqual(tl.SnapshotSets(), New(cfg).SnapshotSets()) || tl.Stats != (Stats{}) {
					t.Fatalf("assoc %d: Reset left state behind", assoc)
				}
			}
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			page := (x >> 20) % pages
			set := model[page%sets]
			want := false
			for i, p := range set {
				if p == page {
					want = true
					set = append(set[:i], set[i+1:]...)
					break
				}
			}
			if !want && len(set) == assoc {
				set = set[:assoc-1]
			}
			model[page%sets] = append([]uint64{page}, set...)
			st.Accesses++
			if !want {
				st.Misses++
			}
			if got := tl.TranslatePage(page); got != want {
				t.Fatalf("assoc %d step %d: TranslatePage(%d) = %v, model %v", assoc, step, page, got, want)
			}
			got := tl.SnapshotSets()
			for s := range model {
				if len(model[s]) == 0 && len(got[s]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[s], model[s]) {
					t.Fatalf("assoc %d step %d: set %d = %v, model %v", assoc, step, s, got[s], model[s])
				}
			}
		}
		if tl.Stats != st {
			t.Fatalf("assoc %d: stats %+v, model %+v", assoc, tl.Stats, st)
		}
	}
}
