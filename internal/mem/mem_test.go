package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestSpaceAllocAlignmentAndNonOverlap(t *testing.T) {
	s := NewSpace()
	type region struct {
		base Addr
		size int
	}
	var regions []region
	sizes := []int{1, 7, 8, 64, 4096, 100000}
	aligns := []int{1, 2, 8, 64, 4096}
	for i, size := range sizes {
		align := aligns[i%len(aligns)]
		base := s.Alloc(size, align)
		if uint64(base)%uint64(align) != 0 {
			t.Errorf("alloc %d: base %#x not aligned to %d", i, base, align)
		}
		for _, r := range regions {
			if base < r.base+Addr(r.size) && r.base < base+Addr(size) {
				t.Errorf("alloc %d overlaps earlier region", i)
			}
		}
		regions = append(regions, region{base, size})
	}
}

func TestSpaceAllocPanics(t *testing.T) {
	s := NewSpace()
	for _, tc := range []struct{ size, align int }{
		{0, 8}, {-1, 8}, {8, 0}, {8, 3}, {8, -4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Alloc(%d, %d): expected panic", tc.size, tc.align)
				}
			}()
			s.Alloc(tc.size, tc.align)
		}()
	}
}

func TestSpaceDeterminism(t *testing.T) {
	a, b := NewSpace(), NewSpace()
	for i := 0; i < 20; i++ {
		if x, y := a.Alloc(100+i, 8), b.Alloc(100+i, 8); x != y {
			t.Fatalf("alloc %d: %#x != %#x", i, x, y)
		}
	}
}

func TestArrayAddressing(t *testing.T) {
	s := NewSpace()
	a := NewArray(s, "A", 8, 4, 6)
	// Row-major: [i][j] at base + (i*6+j)*8.
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			want := a.Base + Addr((i*6+j)*8)
			if got := a.Addr(i, j); got != want {
				t.Fatalf("Addr(%d,%d) = %#x, want %#x", i, j, got, want)
			}
		}
	}
	// Column-major after SetOrder.
	a.SetOrder([]int{1, 0})
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			want := a.Base + Addr((j*4+i)*8)
			if got := a.Addr(i, j); got != want {
				t.Fatalf("col-major Addr(%d,%d) = %#x, want %#x", i, j, got, want)
			}
		}
	}
}

func TestArrayLayoutBijective(t *testing.T) {
	// Property: under any dimension order, distinct logical indices map
	// to distinct addresses within the allocated footprint.
	s := NewSpace()
	a := NewPaddedArray(s, "B", 8, 3, 5, 7, 3)
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}, {0, 2, 1}, {1, 2, 0}}
	for _, ord := range orders {
		a.SetOrder(ord)
		seen := map[Addr][3]int{}
		for i := 0; i < 5; i++ {
			for j := 0; j < 7; j++ {
				for k := 0; k < 3; k++ {
					addr := a.Addr(i, j, k)
					if prev, dup := seen[addr]; dup {
						t.Fatalf("order %v: %v and %v share address %#x", ord, prev, [3]int{i, j, k}, addr)
					}
					seen[addr] = [3]int{i, j, k}
					if addr < a.Base || addr >= a.Base+Addr(a.footprint()) {
						t.Fatalf("order %v: address %#x outside footprint", ord, addr)
					}
				}
			}
		}
	}
}

func TestArrayPaddingSeparatesLines(t *testing.T) {
	s := NewSpace()
	a := NewPaddedArray(s, "P", 8, 2, 4, 4)
	// Pad applies to the fastest dimension: row stride is 4+2 elements.
	if got, want := a.Addr(1, 0)-a.Addr(0, 0), Addr(6*8); got != want {
		t.Fatalf("padded row stride = %d, want %d", got, want)
	}
}

func TestArrayDataLayoutIndependent(t *testing.T) {
	s := NewSpace()
	a := NewArray(s, "D", 8, 3, 3)
	a.SetData(42, 1, 2)
	a.SetOrder([]int{1, 0})
	if got := a.Data(1, 2); got != 42 {
		t.Fatalf("backing data moved with layout: got %d", got)
	}
	if got := a.Data(2, 1); got != 0 {
		t.Fatalf("transposed element unexpectedly %d", got)
	}
}

// TestArrayDataChecksIndices pins that Data and SetData reject exactly the
// subscripts Addr rejects, with the same message: before the check, a 3×4
// array's SetData(7, 0, 5) silently wrote element (1,1).
func TestArrayDataChecksIndices(t *testing.T) {
	for _, tc := range []struct {
		idx  []int
		want string // panic message; empty means accepted
	}{
		{[]int{0, 0}, ""},
		{[]int{2, 3}, ""},
		{[]int{0, 5}, "mem: array D index 5 out of range [0,4) in dim 1"},
		{[]int{3, 0}, "mem: array D index 3 out of range [0,3) in dim 0"},
		{[]int{-1, 0}, "mem: array D index -1 out of range [0,3) in dim 0"},
		{[]int{1, -1}, "mem: array D index -1 out of range [0,4) in dim 1"},
		{[]int{1}, "mem: array D indexed with 1 subscripts, has 2 dims"},
		{[]int{1, 1, 0}, "mem: array D indexed with 3 subscripts, has 2 dims"},
	} {
		// Data is checked on an array without backing data (the lazy
		// zero path) as well as one with it.
		fresh := NewArray(NewSpace(), "D", 8, 3, 4)
		stored := NewArray(NewSpace(), "D", 8, 3, 4)
		stored.SetData(1, 0, 0)
		for name, f := range map[string]func(){
			"Addr":         func() { fresh.Addr(tc.idx...) },
			"Data":         func() { fresh.Data(tc.idx...) },
			"Data(stored)": func() { stored.Data(tc.idx...) },
			"SetData":      func() { fresh.SetData(7, tc.idx...) },
		} {
			got := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				f()
				return ""
			}()
			if got != tc.want {
				t.Errorf("%s%v: panic %q, want %q", name, tc.idx, got, tc.want)
			}
		}
	}
	// A rejected SetData stores nothing anywhere.
	a := NewArray(NewSpace(), "D", 8, 3, 4)
	func() {
		defer func() { _ = recover() }()
		a.SetData(7, 0, 5)
	}()
	if got := a.Data(1, 1); got != 0 {
		t.Fatalf("out-of-range SetData aliased element (1,1): %d", got)
	}
}

func TestArraySetOrderRejectsNonPermutations(t *testing.T) {
	s := NewSpace()
	a := NewArray(s, "E", 8, 2, 2)
	for _, ord := range [][]int{{0}, {0, 0}, {1, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOrder(%v): expected panic", ord)
				}
			}()
			a.SetOrder(ord)
		}()
	}
}

func TestArrayStrideQuick(t *testing.T) {
	// Property: Addr differences along one dimension equal
	// Stride(dim)*Elem regardless of layout.
	f := func(colMajor bool, i, j uint8) bool {
		s := NewSpace()
		a := NewArray(s, "Q", 8, 16, 16)
		if colMajor {
			a.SetOrder([]int{1, 0})
		}
		ii, jj := int(i%15), int(j%15)
		d0 := int64(a.Addr(ii+1, jj)) - int64(a.Addr(ii, jj))
		d1 := int64(a.Addr(ii, jj+1)) - int64(a.Addr(ii, jj))
		return d0 == a.Stride(0)*8 && d1 == a.Stride(1)*8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountingEmitter(t *testing.T) {
	var c CountingEmitter
	c.Access(0x1000, 8, false)
	c.Access(0x1008, 8, true)
	c.Compute(10)
	c.Marker(true)
	c.Marker(false)
	if c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", c.Reads, c.Writes)
	}
	if c.Accesses() != 2 {
		t.Fatalf("accesses=%d", c.Accesses())
	}
	if c.Instructions != 2+10+2 {
		t.Fatalf("instructions=%d", c.Instructions)
	}
	if c.Markers != 2 || c.OnMarkers != 1 {
		t.Fatalf("markers=%d on=%d", c.Markers, c.OnMarkers)
	}
}

func TestScalar(t *testing.T) {
	s := NewSpace()
	a := NewScalar(s, "x", 8)
	b := NewScalar(s, "y", 4)
	if a.Addr == b.Addr {
		t.Fatal("scalars share an address")
	}
	if a.Size != 8 || b.Size != 4 {
		t.Fatal("scalar sizes wrong")
	}
}
