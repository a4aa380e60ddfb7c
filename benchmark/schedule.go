package main

import (
	"fmt"
	"math/rand"
)

// schedule is the whole open-loop update stream of one run, generated from
// the seed before anything is measured: update g changes object obj[g] to
// val[g] and is due at slot g/perSlot. Knowing the stream in advance makes
// every check exact and allocation-free: version v ≥ 2 of object o is update
// seq[start[o]+v-2] (version 1 is the set-up's initial value 0), so an
// applied (object, origin version, value) is compared with what was issued
// for that version, and its due time needs no lookup table.
type schedule struct {
	perSlot int
	obj     []int32
	val     []int32
	start   []int32 // CSR offsets into seq, len objects+1
	seq     []int32 // update indices grouped by object, in issue order
}

func newSchedule(wl *workload, seed int64, slots int) *schedule {
	perSlot := wl.rate / 1000
	n := slots * perSlot
	s := &schedule{
		perSlot: perSlot,
		obj:     make([]int32, n),
		val:     make([]int32, n),
		start:   make([]int32, wl.objects+1),
		seq:     make([]int32, n),
	}
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if wl.pick == pickZipf {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(wl.objects-1))
	}
	perOrigin := wl.objects / wl.origins
	cur := make([]int32, wl.objects)
	for g := 0; g < n; g++ {
		var o int
		switch wl.pick {
		case pickRoundRobin:
			o = g % wl.objects
		case pickStar:
			o = rng.Intn(perOrigin)
			if rng.Intn(4) == 3 { // src-1 gets a quarter of the stream
				o += perOrigin
			}
		case pickZipf:
			o = int(zipf.Uint64())
		}
		cur[o] += int32(rng.Intn(2)*2 - 1) // ±1 random walk
		s.obj[g] = int32(o)
		s.val[g] = cur[o]
		s.start[o+1]++
	}
	for o := 0; o < wl.objects; o++ {
		s.start[o+1] += s.start[o]
	}
	fill := append([]int32(nil), s.start[:wl.objects]...)
	for g, o := range s.obj {
		s.seq[fill[o]] = int32(g)
		fill[o]++
	}
	return s
}

const zipfS = 1.2

// updateOf returns the update that produced version v ≥ 2 of object o.
func (s *schedule) updateOf(o int, v uint32) (g int32, ok bool) {
	i := s.start[o] + int32(v) - 2
	if v < 2 || i >= s.start[o+1] {
		return 0, false
	}
	return s.seq[i], true
}

// finalVersion is the origin version of object o once the stream has ended.
func (s *schedule) finalVersion(o int) uint32 { return uint32(s.start[o+1]-s.start[o]) + 1 }

// objectIDs names object o "src-<origin>/o<index>": source-qualified, as the
// runtime's shard hash expects, and with the index in the last five
// characters so an observer recovers it without a map lookup.
func objectIDs(wl *workload) []string {
	perOrigin := wl.objects / wl.origins
	ids := make([]string, wl.objects)
	for o := range ids {
		ids[o] = fmt.Sprintf("src-%d/o%05d", o/perOrigin, o)
	}
	return ids
}

func objectIndex(id string) int {
	n := 0
	for i := len(id) - 5; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}
