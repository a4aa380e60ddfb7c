package runtime

import (
	"fmt"
	"math/rand"
	"testing"
)

// idOwner owns an idIndex the way the cache store or a Source does: the ids live in
// its own records, and a tag match is confirmed against them.
type idOwner struct {
	x   idIndex
	ids []string
}

func (o *idOwner) find(h uint64, id string) int32 {
	p := o.x.probe(h)
	for {
		if i := o.x.next(&p); i < 0 || o.ids[i] == id {
			return i
		}
	}
}

func (o *idOwner) add(h uint64, id string) {
	o.x.insert(h, int32(len(o.ids)))
	o.ids = append(o.ids, id)
}

// check resolves every oracle id and the probe ids through the index, and
// checks the load bound.
func (o *idOwner) check(t testing.TB, hash func(string) uint64, oracle map[string]int32, probes []string) {
	t.Helper()
	for id, want := range oracle {
		if got := o.find(hash(id), id); got != want {
			t.Fatalf("find(%q) = %d, want %d", id, got, want)
		}
	}
	for _, id := range probes {
		want, ok := oracle[id]
		if !ok {
			want = -1
		}
		if got := o.find(hash(id), id); got != want {
			t.Fatalf("find(%q) = %d, want %d (present=%v)", id, got, want, ok)
		}
	}
	if n := len(o.x.words); 2*o.x.n > n || o.x.n != len(oracle) {
		t.Fatalf("%d entries in %d slots, oracle holds %d: load above ½ or count drift", o.x.n, n, len(oracle))
	}
}

// TestIDIndexMatchesMap is a differential test of idIndex against a
// map[string]int32. The index takes the hash as an argument, so the hash
// functions below can force what hashID almost never produces: ids sharing
// their whole 32-bit tag (and so their home slot), and long clusters of ids
// whose tags agree in their top bits.
func TestIDIndexMatchesMap(t *testing.T) {
	hashes := map[string]func(string) uint64{
		"hashID": hashID,
		// Every id has the same tag and home; only the low half, which the
		// index never reads, differs. Every probe walks the whole cluster,
		// every word is a candidate, and every absent probe is a miss on a
		// full-tag collision.
		"one-tag": func(id string) uint64 { return 0xdeadbeef<<32 | hashID(id)&idLow },
		// Sixteen tags, all homed in the same top bits: long runs of
		// mismatching tags before an empty slot.
		"sixteen-tags": func(id string) uint64 { return (hashID(id)>>60)<<32 | 0xfff<<44 | hashID(id)&idLow },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			n := 3000
			if name == "one-tag" {
				n = 300 // every find is linear in the table here
			}
			rng := rand.New(rand.NewSource(25))
			var o idOwner
			oracle := map[string]int32{}
			// Ids that differ only in their middle bytes, and absent ids of the
			// same shape.
			id := func(k int) string { return fmt.Sprintf("tenant-%05d/obj-1", k) }
			sizes := map[int]bool{}
			for len(oracle) < n {
				k := rng.Intn(2 * n)
				s := id(k)
				h := hash(s)
				if i := o.find(h, s); i >= 0 {
					if i != oracle[s] {
						t.Fatalf("find(%q) = %d, want %d", s, i, oracle[s])
					}
					continue
				}
				if _, ok := oracle[s]; ok {
					t.Fatalf("find(%q) missed an inserted id", s)
				}
				oracle[s] = int32(len(o.ids))
				o.add(h, s)
				sizes[len(o.x.words)] = true
				if len(oracle)%(n/10) == 0 {
					probes := make([]string, 64)
					for i := range probes {
						probes[i] = id(rng.Intn(4 * n))
					}
					o.check(t, hash, oracle, probes)
				}
			}
			if len(sizes) < 4 {
				t.Errorf("the table took only %d sizes over %d inserts: want several doublings", len(sizes), n)
			}
		})
	}
}

// FuzzIDIndex drives inserts and finds from the fuzzer's bytes, under a hash
// whose tag bits the fuzzer also chooses, against a map oracle.
func FuzzIDIndex(f *testing.F) {
	// The ids share a long prefix and suffix and differ in the middle.
	var ids [256]string
	for i := range ids {
		ids[i] = fmt.Sprintf("src/%03d/suffix", i)
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0))
	f.Add([]byte("tenant-0001/obj-1 tenant-0002/obj-1"), uint8(32))
	f.Add([]byte{7, 7, 7, 7, 200, 201, 202, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, uint8(60))
	f.Fuzz(func(t *testing.T, ops []byte, keep uint8) {
		// keep ∈ [0, 64): how many of hashID's top bits survive. 0 makes every
		// id share one tag and home; 32 or more leaves the tag intact.
		keep %= 64
		hash := func(id string) uint64 {
			h := hashID(id)
			if keep < 32 {
				h = h>>(64-keep)<<(64-keep) | h&idLow
			}
			return h
		}
		var o idOwner
		oracle := map[string]int32{}
		var probes []string
		// Each pair of bytes is one op: an id, and insert (even) or find (odd).
		// 128 ops take the table through five doublings; reading no further
		// keeps the minimizer's work on an interesting input small.
		for i := 0; i+1 < len(ops) && i < 256; i += 2 {
			id := ids[ops[i]]
			h := hash(id)
			want, ok := oracle[id]
			if !ok {
				want = -1
			}
			if got := o.find(h, id); got != want {
				t.Fatalf("op %d: find(%q) = %d, want %d", i/2, id, got, want)
			}
			if ops[i+1]&1 == 0 && !ok {
				oracle[id] = int32(len(o.ids))
				o.add(h, id)
			} else {
				probes = append(probes, id)
			}
		}
		o.check(t, hash, oracle, probes)
	})
}
