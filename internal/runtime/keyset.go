package runtime

import "math/bits"

// keySet is a set of dense keys — a Source's queue keys, the cache store's
// slab indexes — as a pointer-free bitset GC never scans. Setting a key is
// idempotent and counted; the words grow when a key beyond them is set, never
// with the key space. pop drains round-robin from a cursor: a drain cut short
// resumes after the last key it took, so every key gets its turn.
type keySet struct {
	bits   []uint64
	n      int // keys set
	cursor int // the key the next pop starts from
}

// set adds key k.
func (s *keySet) set(k int) {
	w := k >> 6
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if bit := uint64(1) << (k & 63); s.bits[w]&bit == 0 {
		s.bits[w] |= bit
		s.n++
	}
}

// fill adds every key below n.
func (s *keySet) fill(n int) {
	for k := n - 1; k >= 0; k-- { // the highest first: one grow
		s.set(k)
	}
}

// pop removes and returns the first key at or after the cursor, wrapping
// past the last word; false when the set is empty.
func (s *keySet) pop() (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	w := s.cursor >> 6
	m := s.bits[w] &^ (1<<(s.cursor&63) - 1)
	for m == 0 {
		w = (w + 1) % len(s.bits)
		m = s.bits[w]
	}
	k := w<<6 | bits.TrailingZeros64(m)
	s.bits[w] &^= 1 << (k & 63)
	s.n--
	s.cursor = (k + 1) % (len(s.bits) << 6) // the words never shrink
	return k, true
}
