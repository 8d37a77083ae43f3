package cache

import "math/bits"

// MaxAssoc is the widest set the packed layout holds: a set's recency
// order is one 64-bit word of 4-bit way numbers.
const MaxAssoc = 16

// Order is the recency order of one set of a set-associative structure:
// a permutation of the set's way numbers packed as 4-bit nibbles, most
// recently used first (in the low nibble). Restricted to the valid ways
// it is exactly the set's LRU stack — every fill and every hit moves its
// way to the front, and an invalidation leaves the relative order of the
// remaining ways alone — so the MRU way is the low nibble and, in a full
// set, the LRU way is the nibble at position assoc−1. Invalid ways may
// sit anywhere in the word: filling one moves it to the front, which is
// where a newly filled line belongs in the stack.
type Order uint64

// nibbleOnes has the low bit of every nibble set.
const nibbleOnes = 0x1111111111111111

// InitialOrder is the order of an empty set of assoc ways: way i at
// position i.
func InitialOrder(assoc int) Order {
	var o Order
	for w := assoc - 1; w >= 0; w-- {
		o = o<<4 | Order(w)
	}
	return o
}

// MRU returns the most recently used way.
func (o Order) MRU() uint { return uint(o & 15) }

// At returns the way at recency position p (0 = MRU).
func (o Order) At(p int) int { return int(o>>(4*uint(p))) & 15 }

// Victim returns the LRU replacement choice of an assoc-way set with the
// given valid mask: the first invalid way, else the way at the back of
// the order.
func (o Order) Victim(assoc int, valid uint16) int {
	if full := uint16(1<<assoc - 1); valid != full {
		return bits.TrailingZeros16(^valid)
	}
	return o.At(assoc - 1)
}

// Touch moves way w to the front. w must be one of the order's ways.
func (o Order) Touch(w int) Order {
	// Find w's position branch-free: XOR zeroes its nibble, the two ORs
	// fold every nibble onto its low bit, and the lowest clear low bit
	// marks the first nibble equal to w. Nibbles past the set's ways may
	// also match, but w's own position is always lower.
	x := uint64(o) ^ uint64(w)*nibbleOnes
	x |= x >> 2
	x |= x >> 1
	p := uint(bits.TrailingZeros64(^x & nibbleOnes))
	below := uint64(1)<<p - 1
	through := uint64(1)<<(p+4) - 1
	return Order(uint64(o)&^through | (uint64(o)&below)<<4 | uint64(w))
}

// ValidWays returns the ways of an assoc-way set whose bit is set in
// valid, most recently used first: the set's LRU stack. Snapshots use it;
// it allocates.
func (o Order) ValidWays(assoc int, valid uint16) []int {
	ways := make([]int, 0, bits.OnesCount16(valid))
	for p := 0; p < assoc; p++ {
		if w := o.At(p); valid>>uint(w)&1 != 0 {
			ways = append(ways, w)
		}
	}
	return ways
}
