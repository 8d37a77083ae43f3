package workloads

import (
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// chainMap is a chained hash map over simulated memory, shared by the
// scripting-runtime (perl) and dictionary-compression (compress) kernels.
// Buckets, chain links, keys and values are separate simulated arrays with
// backing data, so lookups emit the genuine bucket-then-chain pointer walk
// and the reference stream depends on the actual key distribution.
type chainMap struct {
	name    string
	buckets *mem.Array // [nbuckets][1] -> 1+slot of head, 0 empty
	next    *mem.Array // [cap][1] -> 1+slot of next
	keys    *mem.Array // [cap][1]
	vals    *mem.Array // [cap][1]
	mask    uint64
	size    int
	cap     int
}

func newChainMap(sp *mem.Space, name string, nbuckets, capacity int) *chainMap {
	if nbuckets <= 0 || nbuckets&(nbuckets-1) != 0 {
		panic("workloads: chainMap buckets must be a power of two")
	}
	m := &chainMap{
		name:    name,
		buckets: mem.NewArray(sp, name+".buckets", 8, nbuckets, 1),
		next:    mem.NewArray(sp, name+".next", 8, capacity, 1),
		keys:    mem.NewArray(sp, name+".keys", 8, capacity, 1),
		vals:    mem.NewArray(sp, name+".vals", 8, capacity, 1),
		mask:    uint64(nbuckets - 1),
		cap:     capacity,
	}
	return m
}

func (m *chainMap) bucket(key int64) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> 40 & m.mask)
}

// insertQuiet populates the map before simulated time begins.
func (m *chainMap) insertQuiet(key, val int64) {
	if m.size >= m.cap {
		panic("workloads: chainMap full")
	}
	b := m.bucket(key)
	slot := m.size
	m.size++
	m.keys.SetData(key, slot, 0)
	m.vals.SetData(val, slot, 0)
	m.next.SetData(m.buckets.Data(b, 0), slot, 0)
	m.buckets.SetData(int64(slot+1), b, 0)
}

// lookup walks the chain for key, emitting every access, and returns the
// value. The walk reads the bucket head, then per node the key and (on
// mismatch) the chain link; a hit additionally reads the value.
func (m *chainMap) lookup(ctx *loopir.Ctx, key int64) (val int64, ok bool) {
	ctx.Compute(3)
	cur := ctx.LoadVal(m.buckets, m.bucket(key), 0)
	for cur != 0 {
		slot := int(cur - 1)
		k := ctx.LoadVal(m.keys, slot, 0)
		ctx.Compute(2)
		if k == key {
			return ctx.LoadVal(m.vals, slot, 0), true
		}
		cur = ctx.LoadVal(m.next, slot, 0)
	}
	return 0, false
}

// insert links a new key/value, emitting the build accesses. It reports
// whether capacity remained.
func (m *chainMap) insert(ctx *loopir.Ctx, key, val int64) bool {
	if m.size >= m.cap {
		return false
	}
	b := m.bucket(key)
	slot := m.size
	m.size++
	ctx.Compute(4)
	head := ctx.LoadVal(m.buckets, b, 0)
	ctx.StoreVal(m.keys, key, slot, 0)
	ctx.StoreVal(m.vals, val, slot, 0)
	ctx.StoreVal(m.next, head, slot, 0)
	ctx.StoreVal(m.buckets, int64(slot+1), b, 0)
	return true
}

// update rewrites the value of an existing slot.
func (m *chainMap) update(ctx *loopir.Ctx, slot int, val int64) {
	ctx.StoreVal(m.vals, val, slot, 0)
}

// resetQuiet empties the map without touching simulated memory; the caller
// is expected to pair it with an emitted (affine) clearing loop over
// bucketRefs when the reset is architecturally visible.
func (m *chainMap) resetQuiet() {
	m.size = 0
	for b := 0; b < int(m.mask)+1; b++ {
		m.buckets.SetData(0, b, 0)
	}
}

// clearLoop returns an analyzable loop that zeroes the bucket array (the
// memory traffic of a table reset).
func (m *chainMap) clearLoop(varName string) *loopir.Loop {
	return loopir.ForLoop(varName, int(m.mask)+1,
		stmt(m.name+"-clear", 1, loopir.AffineRef(m.buckets, true, v(varName), c(0))))
}

// opaqueRefs declares the reference classes a lookup/insert mix exhibits,
// for region classification.
func (m *chainMap) opaqueRefs(writes bool) []loopir.Ref {
	refs := []loopir.Ref{
		loopir.OpaqueRef(loopir.ClassIndexed, m.buckets, false),
		loopir.OpaqueRef(loopir.ClassPointer, m.next, false),
		loopir.OpaqueRef(loopir.ClassIndexed, m.keys, false),
		loopir.OpaqueRef(loopir.ClassIndexed, m.vals, writes),
	}
	return refs
}
