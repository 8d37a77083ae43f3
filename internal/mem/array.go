package mem

import "fmt"

// Array is an N-dimensional array in the simulated address space.
//
// Dims gives the logical extents; Elem the element size in bytes. Order is a
// permutation of the dimension numbers, slowest-varying first: the classic
// row-major layout of a 2-D array is Order {0, 1} and column-major is
// {1, 0}. The compiler's data-layout pass mutates Order (via SetOrder) to
// implement memory-layout transformations without rewriting subscripts.
//
// An Array may carry backing integer data (see SetData and Data) so that
// subscripted-subscript workloads (index arrays, hash buckets, page tables)
// can load real values through the simulator and use them to form further
// addresses, which is what makes their reference streams genuinely
// irregular. The data is allocated by the first SetData; until then every
// element reads as zero, so arrays whose values nobody reads cost nothing.
type Array struct {
	Name string
	Base Addr
	Dims []int
	Elem int
	// Pad is an extra padding in elements added to the fastest-varying
	// dimension's extent when linearizing; array padding is a standard
	// conflict-miss mitigation and the paper's baseline applies it.
	Pad int

	order   []int
	strides []int64 // per logical dimension, in elements
	data    []int64 // backing data, logical linearization; nil until the first SetData
}

// NewArray allocates an array with the given logical extents (row-major
// layout by default) from s. Elem must divide 8 or be a multiple of 8.
func NewArray(s *Space, name string, elem int, dims ...int) *Array {
	return NewPaddedArray(s, name, elem, 0, dims...)
}

// NewPaddedArray is NewArray with pad extra elements of padding on the
// fastest-varying dimension of the physical layout.
func NewPaddedArray(s *Space, name string, elem int, pad int, dims ...int) *Array {
	if len(dims) == 0 {
		panic("mem: array needs at least one dimension")
	}
	if elem <= 0 {
		panic(fmt.Sprintf("mem: array %s element size %d", name, elem))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("mem: array %s dimension %d", name, d))
		}
		n *= d
	}
	a := &Array{
		Name: name,
		Dims: append([]int(nil), dims...),
		Elem: elem,
		Pad:  pad,
	}
	order := make([]int, len(dims))
	for i := range order {
		order[i] = i
	}
	a.setOrder(order)
	// Allocate the worst-case footprint once so that changing the layout
	// never moves the base address (the compiler's layout transformation
	// is applied before simulation starts, but keeping the footprint
	// stable keeps address-space accounting simple and deterministic).
	align := elem
	if align < 8 {
		align = 8
	}
	a.Base = s.Alloc(a.footprint(), align)
	return a
}

// footprint returns the byte size the array may need under any dimension
// order: padding lands on the fastest-varying dimension, so the worst case
// pads the dimension whose removal leaves the largest remaining product.
// Allocating the maximum keeps the base address stable across layout
// transformations.
func (a *Array) footprint() int {
	n := 1
	minDim := a.Dims[0]
	for _, d := range a.Dims {
		n *= d
		if d < minDim {
			minDim = d
		}
	}
	return (n + a.Pad*(n/minDim)) * a.Elem
}

// Order returns a copy of the current dimension order, slowest-varying
// first.
func (a *Array) Order() []int { return append([]int(nil), a.order...) }

// SetOrder installs a new dimension order. It panics unless order is a
// permutation of 0..len(Dims)-1. Backing data, if any, is preserved: data is
// stored against logical indices and is therefore layout-independent.
func (a *Array) SetOrder(order []int) {
	if len(order) != len(a.Dims) {
		panic(fmt.Sprintf("mem: array %s order length %d want %d", a.Name, len(order), len(a.Dims)))
	}
	seen := make([]bool, len(order))
	for _, d := range order {
		if d < 0 || d >= len(order) || seen[d] {
			panic(fmt.Sprintf("mem: array %s order %v is not a permutation", a.Name, order))
		}
		seen[d] = true
	}
	a.setOrder(order)
}

func (a *Array) setOrder(order []int) {
	a.order = append(a.order[:0], order...)
	if a.strides == nil {
		a.strides = make([]int64, len(a.Dims))
	}
	stride := int64(1)
	for i := len(order) - 1; i >= 0; i-- {
		dim := order[i]
		a.strides[dim] = stride
		extent := int64(a.Dims[dim])
		if i == len(order)-1 {
			extent += int64(a.Pad)
		}
		stride *= extent
	}
}

// Stride returns the element stride of logical dimension dim under the
// current layout.
func (a *Array) Stride(dim int) int64 { return a.strides[dim] }

// Len returns the number of logical elements.
func (a *Array) Len() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// linear maps logical indices to the physical element offset under the
// current layout.
func (a *Array) linear(idx []int) int64 {
	if len(idx) != len(a.Dims) {
		panic(indexError{name: a.Name, subscripts: len(idx), dims: len(a.Dims)})
	}
	var off int64
	for d, i := range idx {
		if i < 0 || i >= a.Dims[d] {
			panic(indexError{name: a.Name, dim: d, index: i, extent: a.Dims[d]})
		}
		off += int64(i) * a.strides[d]
	}
	return off
}

// logicalLinear maps logical indices to the layout-independent linearization
// used for backing data. It checks indices exactly as linear does: without
// the checks an out-of-range subscript would silently alias another
// element.
func (a *Array) logicalLinear(idx []int) int {
	if len(idx) != len(a.Dims) {
		panic(indexError{name: a.Name, subscripts: len(idx), dims: len(a.Dims)})
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= a.Dims[d] {
			panic(indexError{name: a.Name, dim: d, index: i, extent: a.Dims[d]})
		}
		off = off*a.Dims[d] + i
	}
	return off
}

// indexError is the panic value for a subscript list an array rejects:
// the wrong number of subscripts, or one outside its dimension. It is
// formatted only when printed, which keeps the checks cheap enough for
// linear and logicalLinear to inline into Addr, Data and SetData.
type indexError struct {
	name               string
	subscripts, dims   int // an arity error when they differ
	dim, index, extent int
}

func (e indexError) Error() string {
	if e.subscripts != e.dims {
		return fmt.Sprintf("mem: array %s indexed with %d subscripts, has %d dims", e.name, e.subscripts, e.dims)
	}
	return fmt.Sprintf("mem: array %s index %d out of range [0,%d) in dim %d", e.name, e.index, e.extent, e.dim)
}

// Addr returns the simulated address of the element at the given logical
// indices under the current layout.
func (a *Array) Addr(idx ...int) Addr {
	return a.Base + Addr(a.linear(idx)*int64(a.Elem))
}

// AccessSize returns the access size to use for a single element, capped at
// 8 bytes (wider elements are accessed as their leading word, which is how
// a word-oriented pipeline touches them and keeps block-utilisation
// modelling honest).
func (a *Array) AccessSize() uint8 {
	if a.Elem >= 8 {
		return 8
	}
	return uint8(a.Elem)
}

// SetData stores v as the backing value of the element at idx, allocating
// the array's backing data on first use. Like Addr it panics on a wrong
// number of subscripts or an out-of-range index.
func (a *Array) SetData(v int64, idx ...int) {
	off := a.logicalLinear(idx)
	if a.data == nil {
		a.data = make([]int64, a.Len())
	}
	a.data[off] = v
}

// Data returns the backing value of the element at idx: zero if nothing
// was ever stored there. Like Addr it panics on a wrong number of
// subscripts or an out-of-range index.
func (a *Array) Data(idx ...int) int64 {
	off := a.logicalLinear(idx)
	if a.data == nil {
		return 0
	}
	return a.data[off]
}
