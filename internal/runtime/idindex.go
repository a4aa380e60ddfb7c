package runtime

import (
	"hash/maphash"
	"math/bits"
)

// idSeed keys the one object-id hash of this package. It is drawn once per
// process, so a peer cannot pick ids that collide, and a hash taken once —
// by Cache.route, for the store's index — serves a whole node hop.
var idSeed = maphash.MakeSeed()

// hashID hashes an object id for routing and for an idIndex probe.
func hashID(id string) uint64 { return maphash.String(idSeed, id) }

// idIndex maps object ids to the dense int32 indexes of an insert-only owner:
// the cache store's slab, a Source's queue keys, the poll scheduler's objects.
// Each slot is one word — the hash's high 32 bits as a tag, the index + 1 in
// the low 32 bits, 0 for empty — so the table holds no strings and no
// pointers, and GC mark never scans it. A probe starts at the hash's top bits
// and walks linearly (load ≤ ½, doubled on insert); a word whose tag matches
// is a candidate the caller confirms against the id in its own record. The
// home slot is the tag's top bits, so doubling re-places the words without
// rehashing an id.
type idIndex struct {
	words []uint64 // power-of-two length, or nil while empty
	n     int
	shift uint // 64 − log2(len(words))
}

// idLow masks a slot word's index half.
const idLow = 1<<32 - 1

// idMinSlots is the table size of the first insert.
const idMinSlots = 8

// idProbe is one lookup in progress over an idIndex.
type idProbe struct {
	pos, tag uint64
}

// probe starts the lookup of hash h.
func (x *idIndex) probe(h uint64) idProbe {
	return idProbe{pos: h >> x.shift, tag: h &^ idLow}
}

// next returns the index of the next word on p's path whose tag matches, or
// -1 once the path reaches an empty slot: the id is absent. The caller
// compares the id in its record at that index and calls next again on a
// mismatch (two ids sharing all 32 tag bits).
func (x *idIndex) next(p *idProbe) int32 {
	if len(x.words) == 0 {
		return -1
	}
	mask := uint64(len(x.words) - 1)
	for {
		w := x.words[p.pos&mask]
		p.pos++
		if w == 0 {
			return -1
		}
		if w&^idLow == p.tag {
			return int32(w&idLow) - 1
		}
	}
}

// home returns the word in hash h's home slot, the first a probe of h reads
// (0 while the table is empty). A caller resolving many ids loads all their
// home words first: the loads are independent, so their cache misses overlap.
func (x *idIndex) home(h uint64) uint64 {
	if len(x.words) == 0 {
		return 0
	}
	return x.words[h>>x.shift]
}

// insert records index i under hash h. The caller has just probed h and
// found its id absent.
func (x *idIndex) insert(h uint64, i int32) {
	if 2*(x.n+1) > len(x.words) {
		x.grow()
	}
	x.place(h&^idLow | (uint64(i) + 1))
	x.n++
}

// place stores word w in the first empty slot from its home.
func (x *idIndex) place(w uint64) {
	mask := uint64(len(x.words) - 1)
	for pos := w >> x.shift; ; pos++ {
		if x.words[pos&mask] == 0 {
			x.words[pos&mask] = w
			return
		}
	}
}

// grow doubles the table. A word's home is its tag's top bits, so the words
// move without their ids.
func (x *idIndex) grow() {
	old := x.words
	size := max(2*len(old), idMinSlots)
	x.words = make([]uint64, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, w := range old {
		if w != 0 {
			x.place(w)
		}
	}
}
