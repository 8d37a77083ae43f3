package cache

import (
	"fmt"
	"reflect"
	"testing"

	"selcache/internal/mem"
)

// modelLine is one resident block of the naive LRU model.
type modelLine struct {
	block uint64
	dirty bool
}

// lruModel is the naive reference for a true-LRU write-back cache: each
// set is a list of resident blocks, most recently used first.
type lruModel struct {
	assoc int
	sets  [][]modelLine
	stats Stats
}

func (m *lruModel) set(block uint64) *[]modelLine { return &m.sets[block%uint64(len(m.sets))] }

func (m *lruModel) index(block uint64) int {
	for i, ln := range *m.set(block) {
		if ln.block == block {
			return i
		}
	}
	return -1
}

// touch moves the line at i to the front, ORing in dirty.
func (m *lruModel) touch(block uint64, i int, dirty bool) {
	set := *m.set(block)
	ln := set[i]
	ln.dirty = ln.dirty || dirty
	copy(set[1:i+1], set[:i])
	set[0] = ln
}

func (m *lruModel) lookup(block uint64, write bool) bool {
	m.stats.Accesses++
	if i := m.index(block); i >= 0 {
		m.touch(block, i, write)
		m.stats.Hits++
		return true
	}
	m.stats.Misses++
	return false
}

// victim is what a fill of an absent block displaces: the LRU line of a
// full set, nothing otherwise.
func (m *lruModel) victim(block uint64, blockBytes int) Evicted {
	set := *m.set(block)
	if len(set) < m.assoc {
		return Evicted{}
	}
	ln := set[len(set)-1]
	return Evicted{BlockAddr: mem.Addr(ln.block * uint64(blockBytes)), Dirty: ln.dirty, Valid: true}
}

func (m *lruModel) fill(block uint64, dirty bool, blockBytes int) Evicted {
	if i := m.index(block); i >= 0 {
		m.touch(block, i, dirty)
		return Evicted{}
	}
	ev := m.victim(block, blockBytes)
	set := m.set(block)
	if ev.Valid {
		*set = (*set)[:len(*set)-1]
		m.stats.Evictions++
		if ev.Dirty {
			m.stats.DirtyEvictions++
		}
	}
	*set = append([]modelLine{{block: block, dirty: dirty}}, *set...)
	m.stats.Fills++
	return ev
}

func (m *lruModel) remove(block uint64) (dirty, ok bool) {
	i := m.index(block)
	if i < 0 {
		return false, false
	}
	set := m.set(block)
	dirty = (*set)[i].dirty
	*set = append((*set)[:i], (*set)[i+1:]...)
	return dirty, true
}

func (m *lruModel) flush() int {
	n := 0
	for s := range m.sets {
		for _, ln := range m.sets[s] {
			if ln.dirty {
				n++
			}
		}
		m.sets[s] = nil
	}
	return n
}

func (m *lruModel) snapshot(blockBytes int) [][]LineSnapshot {
	out := make([][]LineSnapshot, len(m.sets))
	for s, set := range m.sets {
		out[s] = make([]LineSnapshot, len(set))
		for i, ln := range set {
			out[s][i] = LineSnapshot{BlockAddr: mem.Addr(ln.block * uint64(blockBytes)), Dirty: ln.dirty}
		}
	}
	return out
}

// TestCacheMatchesLRUModel drives the packed-layout cache and the naive
// MRU-list model with the same pseudorandom stream of every public
// operation — Lookup, Fill, FillMiss after a miss, VictimWay+FillWay after
// a miss, Remove and Flush — at every supported width from 1 to 16 ways,
// with and without a way memo (which routes every probe through
// LookupSlow). Every hit result, Evicted value, Remove/Flush result and
// the full SnapshotSets must agree after every step.
func TestCacheMatchesLRUModel(t *testing.T) {
	const block, sets = 16, 4
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		for _, memo := range []bool{false, true} {
			t.Run(fmt.Sprintf("assoc=%d/memo=%v", assoc, memo), func(t *testing.T) {
				c := New(Config{Size: sets * assoc * block, Assoc: assoc, Block: block})
				if memo {
					c.EnableWayMemo(8)
				}
				m := &lruModel{assoc: assoc, sets: make([][]modelLine, sets)}
				// Three times the capacity, so every set churns.
				blocks := uint64(3 * sets * assoc)
				x := uint64(0x9E3779B97F4A7C15) + uint64(assoc)
				for step := 0; step < 20000; step++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					b := (x >> 20) % blocks
					a := mem.Addr(b*block + (x>>8)%block)
					write := x>>40%4 == 0
					var op string
					switch r := x % 100; {
					case r < 3:
						op = "Remove"
						d1, ok1 := c.Remove(a)
						d2, ok2 := m.remove(b)
						if d1 != d2 || ok1 != ok2 {
							t.Fatalf("step %d: Remove(%#x) = (%v,%v), model (%v,%v)", step, a, d1, ok1, d2, ok2)
						}
					case r < 4:
						op = "Flush"
						if got, want := c.Flush(), m.flush(); got != want {
							t.Fatalf("step %d: Flush = %d, model %d", step, got, want)
						}
					case r < 20:
						op = "Fill"
						if got, want := c.Fill(a, write), m.fill(b, write, block); got != want {
							t.Fatalf("step %d: Fill(%#x) = %+v, model %+v", step, a, got, want)
						}
					default:
						op = "Lookup"
						hit := c.Lookup(a, write)
						if want := m.lookup(b, write); hit != want {
							t.Fatalf("step %d: Lookup(%#x) = %v, model %v", step, a, hit, want)
						}
						if hit {
							break
						}
						var got Evicted
						if x>>48%2 == 0 {
							op = "Lookup+FillMiss"
							got = c.FillMiss(a, write)
						} else {
							op = "Lookup+VictimWay+FillWay"
							way, vb, vv := c.VictimWay(a)
							pred := m.victim(b, block)
							if vv != pred.Valid || vb != pred.BlockAddr {
								t.Fatalf("step %d: VictimWay(%#x) = (%#x,%v), model (%#x,%v)", step, a, vb, vv, pred.BlockAddr, pred.Valid)
							}
							got = c.FillWay(a, way, write)
						}
						if want := m.fill(b, write, block); got != want {
							t.Fatalf("step %d: %s(%#x) evicted %+v, model %+v", step, op, a, got, want)
						}
					}
					if got, want := c.SnapshotSets(), m.snapshot(block); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%s %#x): sets\n got  %v\n want %v", step, op, a, got, want)
					}
				}
				if c.Stats != m.stats {
					t.Fatalf("stats %+v, model %+v", c.Stats, m.stats)
				}
				if err := c.CheckWayMemo(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
