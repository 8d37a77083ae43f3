package db

import (
	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// HashIndex is a chained hash index over one key column of a table,
// mapping key values to row numbers. Bucket heads and per-row chain links
// are simulated arrays with backing data, so probes emit the same
// bucket-then-chain pointer walk a real executor performs.
type HashIndex struct {
	T *Table
	// Buckets[b][0] holds 1+row of the chain head, 0 when empty.
	Buckets *mem.Array
	// Next[r][0] holds 1+row of the next chain entry.
	Next *mem.Array
	// KeyCol is the indexed column.
	KeyCol string
	mask   uint64
}

// NewHashIndex allocates an index with nbuckets (power of two) buckets.
// The structure is empty until Insert populates it (either silently during
// setup or through ctx during simulated execution).
func NewHashIndex(sp *mem.Space, t *Table, keyCol string, nbuckets int) *HashIndex {
	if nbuckets <= 0 || nbuckets&(nbuckets-1) != 0 {
		panic("db: hash index buckets must be a positive power of two")
	}
	ix := &HashIndex{
		T:       t,
		Buckets: mem.NewArray(sp, t.Name+"."+keyCol+".idx", 8, nbuckets, 1),
		Next:    mem.NewArray(sp, t.Name+"."+keyCol+".chain", 8, t.Rows(), 1),
		KeyCol:  keyCol,
		mask:    uint64(nbuckets - 1),
	}
	return ix
}

func (ix *HashIndex) bucket(key int64) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> 33 & ix.mask)
}

// InsertQuiet links row into the index without emitting accesses (setup
// before simulated time). Inserting a row that is already the chain head is
// a no-op (re-linking it would self-cycle the chain); duplicate inserts
// deeper in a chain are the caller's responsibility — recycle the index
// with ResetStmt between executions instead.
func (ix *HashIndex) InsertQuiet(row int) {
	key := ix.T.Get(row, ix.KeyCol)
	b := ix.bucket(key)
	head := ix.Buckets.Data(b, 0)
	if head == int64(row+1) {
		return
	}
	ix.Next.SetData(head, row, 0)
	ix.Buckets.SetData(int64(row+1), b, 0)
}

// Insert links row into the index, emitting the build-side accesses: the
// key load, the bucket head read-modify-write, and the chain-link store.
func (ix *HashIndex) Insert(ctx *loopir.Ctx, row int) {
	key := ix.T.LoadVal(ctx, row, ix.KeyCol)
	b := ix.bucket(key)
	ctx.Compute(3) // hash
	head := ctx.LoadVal(ix.Buckets, b, 0)
	if head == int64(row+1) {
		return
	}
	ctx.StoreVal(ix.Next, head, row, 0)
	ctx.StoreVal(ix.Buckets, int64(row+1), b, 0)
}

// Lookup walks the chain for key, emitting each probe access, and returns
// the first matching row (or ok=false). Chain entries compare their key
// cell, emitting that read too.
func (ix *HashIndex) Lookup(ctx *loopir.Ctx, key int64) (row int, ok bool) {
	b := ix.bucket(key)
	ctx.Compute(3)
	cur := ctx.LoadVal(ix.Buckets, b, 0)
	for cur != 0 {
		r := int(cur - 1)
		k := ix.T.LoadVal(ctx, r, ix.KeyCol)
		ctx.Compute(2)
		if k == key {
			return r, true
		}
		cur = ctx.LoadVal(ix.Next, r, 0)
	}
	return 0, false
}

// ResetStmt returns an opaque statement that empties the index by clearing
// every bucket head (emitting the sequential bucket-array writes a real
// executor performs when recycling a hash table between query executions).
func (ix *HashIndex) ResetStmt(name string) *loopir.Stmt {
	nb := int(ix.mask) + 1
	return &loopir.Stmt{
		Name: name,
		Refs: []loopir.Ref{
			loopir.OpaqueRef(loopir.ClassPointer, ix.Buckets, true),
		},
		Run: func(ctx *loopir.Ctx) {
			ctx.Compute(2)
			for b := 0; b < nb; b++ {
				ctx.StoreVal(ix.Buckets, 0, b, 0)
			}
		},
	}
}

// BuildStmt returns an opaque statement that builds the whole index (one
// insert per row of the base table), declared with the indexed/pointer
// reference classes region detection expects from a hash build.
func (ix *HashIndex) BuildStmt(name string) *loopir.Stmt {
	return &loopir.Stmt{
		Name: name,
		Refs: []loopir.Ref{
			loopir.OpaqueRef(loopir.ClassIndexed, ix.T.Cells, false),
			loopir.OpaqueRef(loopir.ClassIndexed, ix.Buckets, true),
			loopir.OpaqueRef(loopir.ClassPointer, ix.Next, true),
		},
		Run: func(ctx *loopir.Ctx) {
			for r := 0; r < ix.T.Rows(); r++ {
				ix.Insert(ctx, r)
			}
		},
	}
}

// PerRowBuildStmt returns an opaque statement inserting the row given by
// rowVar, for use inside an explicit loop (so region markers and loop
// overheads are modeled at the right granularity).
func (ix *HashIndex) PerRowBuildStmt(name, rowVar string) *loopir.Stmt {
	return &loopir.Stmt{
		Name: name,
		Refs: []loopir.Ref{
			loopir.OpaqueRef(loopir.ClassIndexed, ix.T.Cells, false),
			loopir.OpaqueRef(loopir.ClassIndexed, ix.Buckets, true),
			loopir.OpaqueRef(loopir.ClassPointer, ix.Next, true),
		},
		Run: func(ctx *loopir.Ctx) {
			ix.Insert(ctx, ctx.V(rowVar))
		},
	}
}
