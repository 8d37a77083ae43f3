// Package db is a small from-scratch in-memory relational substrate used by
// the TPC-C and TPC-D workloads. Tables are two-dimensional simulated
// arrays (rows x columns of 64-bit cells) with backing data, so relational
// operators produce genuine data-dependent reference streams. Sequential
// scans are expressed as affine loopir references — statically analyzable,
// and therefore optimizable by the compiler's layout pass, which turns the
// row-store into a column-store for scan-heavy regions. Hash-index builds,
// probes and joins are opaque statements with indexed references: exactly
// the irregular accesses the paper's region detector hands to the hardware
// mechanism.
package db

import (
	"fmt"

	"selcache/internal/loopir"
	"selcache/internal/mem"
)

// Table is a relation stored row-major as a [rows][cols] array of 64-bit
// cells.
type Table struct {
	Name  string
	Cells *mem.Array
	cols  map[string]int
	names []string
	rows  int
}

// NewTable allocates a table with the given column names.
func NewTable(sp *mem.Space, name string, rows int, cols ...string) *Table {
	t := &Table{
		Name: name,
		// A few elements of padding keep power-of-two strides from
		// folding scans onto a handful of cache sets under either
		// layout (the row-store pads tuples, the column-store pads
		// columns) — the "aggressive array padding" the paper's
		// baseline already includes.
		Cells: mem.NewPaddedArray(sp, name, 8, 8, rows, len(cols)),
		cols:  make(map[string]int, len(cols)),
		names: append([]string(nil), cols...),
		rows:  rows,
	}
	for i, c := range cols {
		if _, dup := t.cols[c]; dup {
			panic(fmt.Sprintf("db: table %s duplicate column %s", name, c))
		}
		t.cols[c] = i
	}
	return t
}

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.names) }

// Col returns the index of the named column; it panics on unknown names
// (a workload construction bug).
func (t *Table) Col(name string) int {
	c, ok := t.cols[name]
	if !ok {
		panic(fmt.Sprintf("db: table %s has no column %s", t.Name, name))
	}
	return c
}

// Set stores v without emitting an access (table population happens before
// simulated time).
func (t *Table) Set(row int, col string, v int64) {
	t.Cells.SetData(v, row, t.Col(col))
}

// Get reads a cell's backing value without emitting an access. Operators
// use it for values architecturally already loaded into registers by an
// emitted access.
func (t *Table) Get(row int, col string) int64 {
	return t.Cells.Data(row, t.Col(col))
}

// LoadVal emits a read of the cell and returns its value.
func (t *Table) LoadVal(ctx *loopir.Ctx, row int, col string) int64 {
	return ctx.LoadVal(t.Cells, row, t.Col(col))
}

// StoreVal emits a write of the cell and updates its value.
func (t *Table) StoreVal(ctx *loopir.Ctx, row int, v int64, col string) {
	ctx.StoreVal(t.Cells, v, row, t.Col(col))
}

// ScanRef builds the affine reference for column col under row variable
// rowVar — the building block of analyzable scan loops.
func (t *Table) ScanRef(rowVar string, col string, write bool) loopir.Ref {
	return loopir.AffineRef(t.Cells, write,
		loopir.VarExpr(rowVar), loopir.ConstExpr(t.Col(col)))
}

// ScanStmt builds a statement reading the given columns of the current row
// (affine, analyzable), with compute instructions for predicate evaluation.
func (t *Table) ScanStmt(name, rowVar string, compute int, cols ...string) *loopir.Stmt {
	refs := make([]loopir.Ref, 0, len(cols))
	for _, c := range cols {
		refs = append(refs, t.ScanRef(rowVar, c, false))
	}
	return &loopir.Stmt{Name: name, Refs: refs, Compute: compute}
}
