package core

import "math/bits"

// bitset is a fixed-capacity bit vector over sub-lattice node indexes.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// drain appends the set bits to dst in ascending order and clears the set.
func (b bitset) drain(dst []int32) []int32 {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(w)))
		}
		b[wi] = 0
	}
	return dst
}

// forEach calls fn for every set bit in ascending order.
func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
