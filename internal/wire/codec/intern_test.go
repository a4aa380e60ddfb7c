package codec

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bestsync/internal/wire"
)

// loopReader replays one byte stream for ever, so a single Decoder (and its
// intern table) can be fed lap after lap of the same frames.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// roundRobinStream encodes objects distinct ids, batch refreshes to a frame,
// every refresh relayed over the same one-element path.
func roundRobinStream(objects, batch int) (stream []byte, frames int) {
	return idStream("src-0/o%05d", objects, batch)
}

// idStream is roundRobinStream with the object ids drawn from format.
func idStream(format string, objects, batch int) (stream []byte, frames int) {
	var enc Encoder
	via := []string{"relay"}
	for first := 0; first < objects; first += batch {
		rs := make([]wire.Refresh, batch)
		for i := range rs {
			rs[i] = wire.Refresh{
				SourceID: "relay", ObjectID: fmt.Sprintf(format, first+i),
				Origin: "src-0", Hops: 1, Via: via, OriginEpoch: 7, OriginVersion: 1,
				Value: 1, Version: 1, Epoch: 9,
			}
		}
		stream = enc.AppendBatch(stream, wire.RefreshBatch{Refreshes: rs, SentUnix: 1})
		frames++
	}
	return stream, frames
}

// TestDecoderInternGrowsWithWorkingSet: a round-robin stream over far more
// object ids than the table's initial size — the firehose shape, where a
// fixed 256-slot table missed on every id of every lap — decodes without
// allocating per refresh once the table has grown to hold the working set.
// What is left is the batch itself (two allocations per 64-refresh frame).
func TestDecoderInternGrowsWithWorkingSet(t *testing.T) {
	const objects, batch = 16384, 64
	stream, frames := roundRobinStream(objects, batch)
	d := NewDecoder(&loopReader{data: stream})
	lap := func() {
		for f := 0; f < frames; f++ {
			cb, err := d.ReadCacheBound()
			if err != nil {
				t.Fatal(err)
			}
			if len(cb.Batch.Refreshes) != batch {
				t.Fatalf("decoded %d refreshes, want %d", len(cb.Batch.Refreshes), batch)
			}
		}
	}
	for i := 0; i < 12; i++ {
		lap() // warm-up: the table grows to the working set
	}
	if n := len(d.intern.entries); n < objects || n > internMaxSlots {
		t.Errorf("table has %d slots for a %d-id working set (cap %d)", n, objects, internMaxSlots)
	}
	if raceEnabled {
		return // AllocsPerRun counts race-detector instrumentation
	}
	perRefresh := testing.AllocsPerRun(3, lap) / objects
	if perRefresh > 0.05 {
		t.Errorf("steady-state decode allocated %.3f times per refresh, want ≤ 0.05", perRefresh)
	}
}

// TestDecoderInternSharedSuffix: ids that differ only in the middle and share
// a long suffix (or end in the same few bytes) intern as well as ids with
// distinct tails. A hash of the length, the first byte and the last 8 bytes
// put every such id into one window, so each lap evicted most of them and
// the table grew to 32 768 slots without helping.
func TestDecoderInternSharedSuffix(t *testing.T) {
	const objects, batch = 4096, 64
	for _, format := range []string{"sensor-%05d/temperature", "tenant-%04d/obj-1"} {
		stream, frames := idStream(format, objects, batch)
		d := NewDecoder(&loopReader{data: stream})
		lap := func() {
			for f := 0; f < frames; f++ {
				if _, err := d.ReadCacheBound(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 12; i++ {
			lap()
		}
		if n := len(d.intern.entries); n > 16384 {
			t.Errorf("%q: table has %d slots for a %d-id working set, want ≤ 16384", format, n, objects)
		}
		if raceEnabled {
			continue
		}
		if perRefresh := testing.AllocsPerRun(3, lap) / objects; perRefresh > 0.05 {
			t.Errorf("%q: steady-state decode allocated %.3f times per refresh, want ≤ 0.05", format, perRefresh)
		}
	}
}

// tableBytes is the heap a decoder's intern table holds: its two slot arrays,
// the arena's chunks and the chunk list.
func tableBytes(t *internTable) int {
	return 4*cap(t.entries) + cap(t.tags) + arenaChunk*len(t.chunks) + 16*cap(t.chunks)
}

// separateStringsWorstCase is what a table of internMaxSlots separately
// allocated strings held at most: a 16-byte string header and a tag per
// slot, and an internLimit-byte allocation per string.
const separateStringsWorstCase = internMaxSlots * (16 + 1 + internLimit)

// TestDecoderInternBounded: a peer that never repeats an id cannot grow the
// table past its cap nor its arena past its bound, so the table holds no
// more than separately allocated strings would at their worst, and every id
// still decodes correctly after the arena is full.
func TestDecoderInternBounded(t *testing.T) {
	const batch, frames = 64, 2 * internMaxSlots / 64
	id := func(f, i int) string {
		s := fmt.Sprintf("flood-%d-%d/", f, i)
		return s + strings.Repeat("x", internLimit-len(s))
	}
	var enc Encoder
	var stream []byte
	for f := 0; f < frames; f++ {
		rs := make([]wire.Refresh, batch)
		for i := range rs {
			rs[i] = wire.Refresh{SourceID: "s", ObjectID: id(f, i), Version: 1}
		}
		stream = enc.AppendBatch(stream, wire.RefreshBatch{Refreshes: rs})
	}
	d := NewDecoder(&loopReader{data: stream})
	for f := 0; f < frames; f++ {
		cb, err := d.ReadCacheBound()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range cb.Batch.Refreshes {
			if want := id(f, i); r.ObjectID != want {
				t.Fatalf("frame %d item %d decoded %q, want %q", f, i, r.ObjectID, want)
			}
		}
	}
	if n := len(d.intern.entries); n != internMaxSlots {
		t.Errorf("table has %d slots after a flood of %d distinct ids, want the cap %d", n, frames*batch, internMaxSlots)
	}
	if n := len(d.intern.chunks); n != arenaMaxChunks {
		t.Errorf("arena has %d chunks after a flood of %d distinct %d-byte ids, want the bound %d", n, frames*batch, internLimit, arenaMaxChunks)
	}
	if n := tableBytes(&d.intern); n > separateStringsWorstCase {
		t.Errorf("table holds %d bytes, more than the %d of separately allocated strings", n, separateStringsWorstCase)
	}
}

// TestDecoderInternIDsStable: an id the decoder handed out keeps its bytes
// while the table grows, the arena starts new chunks and, past the slot cap,
// new ids replace old ones — for both id shapes.
func TestDecoderInternIDsStable(t *testing.T) {
	const objects, batch = 3 * internMaxSlots / 2, 64
	for _, format := range []string{"src-0/o%05d", "sensor-%05d/temperature"} {
		stream, frames := idStream(format, objects, batch)
		d := NewDecoder(&loopReader{data: stream})
		held := make([]string, 0, objects)
		for lap := 0; lap < 2; lap++ {
			for f := 0; f < frames; f++ {
				cb, err := d.ReadCacheBound()
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range cb.Batch.Refreshes {
					if want := fmt.Sprintf(format, f*batch+i); r.ObjectID != want {
						t.Fatalf("%q lap %d: decoded %q, want %q", format, lap, r.ObjectID, want)
					}
					if lap == 0 {
						held = append(held, r.ObjectID)
					}
				}
				ReleaseBatch(cb.Batch)
			}
		}
		if n := len(d.intern.entries); n != internMaxSlots {
			t.Errorf("%q: table has %d slots, want the cap %d (no replacement ran)", format, n, internMaxSlots)
		}
		if n := len(d.intern.chunks); n < 2 {
			t.Errorf("%q: arena has %d chunks, want several", format, n)
		}
		for i, got := range held {
			if want := fmt.Sprintf(format, i); got != want {
				t.Fatalf("%q: id %d handed out as %q now reads %q", format, i, want, got)
			}
		}
	}
}

// TestDecoderInternHeapPerID: the live heap a decoder keeps per interned id
// is the id's own bytes and its slot (a tag and a locator, 1⅓ to 2 slots per
// id), not a separate allocation with a string header per slot (about 40 B
// per `src-0/o%05d` id).
func TestDecoderInternHeapPerID(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const objects, batch = 16384, 64
	for _, format := range []string{"src-0/o%05d", "sensor-%05d/temperature"} {
		stream, frames := idStream(format, objects, batch)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		d := NewDecoder(&loopReader{data: stream})
		for f := 0; f < frames; f++ {
			cb, err := d.ReadCacheBound()
			if err != nil {
				t.Fatal(err)
			}
			ReleaseBatch(cb.Batch)
		}
		runtime.GC()
		runtime.GC() // the second cycle empties the batch pool's victim cache
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(d)
		perID := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / objects
		idLen := len(fmt.Sprintf(format, 0))
		t.Logf("%q: %.1f B of live heap per interned %d-byte id", format, perID, idLen)
		if limit := float64(idLen + 12); perID > limit {
			t.Errorf("%q: decoder keeps %.1f B per id, want ≤ %.0f (the id's bytes + 12)", format, perID, limit)
		}
	}
}

// TestDecoderInternStaysSmall: a stream whose working set fits the initial
// table never grows it, however long it runs.
func TestDecoderInternStaysSmall(t *testing.T) {
	stream, frames := roundRobinStream(128, 64)
	d := NewDecoder(&loopReader{data: stream})
	for i := 0; i < 200*frames; i++ {
		if _, err := d.ReadCacheBound(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(d.intern.entries); n != internMinSlots {
		t.Errorf("table grew to %d slots for a 128-id working set", n)
	}
}

// TestDecoderSharesUnchangedVia: consecutive refreshes that took the same
// relay path share one decoded slice (with no spare capacity, so an append
// can never write into it); a different path gets its own.
func TestDecoderSharesUnchangedVia(t *testing.T) {
	var enc Encoder
	rs := []wire.Refresh{
		{SourceID: "r2", ObjectID: "a", Origin: "s", Via: []string{"r1", "r2"}},
		{SourceID: "r2", ObjectID: "b", Origin: "s", Via: []string{"r1", "r2"}},
		{SourceID: "r2", ObjectID: "c", Origin: "s", Via: []string{"r9", "r2"}},
		{SourceID: "r2", ObjectID: "d", Origin: "s"},
		{SourceID: "r2", ObjectID: "e", Origin: "s", Via: []string{"r9", "r2"}},
	}
	stream := enc.AppendBatch(nil, wire.RefreshBatch{Refreshes: rs})
	stream = enc.AppendBatch(stream, wire.RefreshBatch{Refreshes: rs[4:]})
	d := NewDecoder(&loopReader{data: stream})
	cb, err := d.ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	got := cb.Batch.Refreshes
	for i := range rs {
		if !slices.Equal(got[i].Via, rs[i].Via) || (rs[i].Via == nil) != (got[i].Via == nil) {
			t.Fatalf("item %d decoded Via %v, want %v", i, got[i].Via, rs[i].Via)
		}
		if cap(got[i].Via) != len(got[i].Via) {
			t.Errorf("item %d: decoded Via has spare capacity %d", i, cap(got[i].Via)-len(got[i].Via))
		}
	}
	if &got[0].Via[0] != &got[1].Via[0] {
		t.Error("equal consecutive paths were decoded into separate slices")
	}
	if &got[2].Via[0] == &got[1].Via[0] {
		t.Error("a different path shares the previous one's slice")
	}
	if &got[4].Via[0] != &got[2].Via[0] {
		t.Error("a direct refresh in between broke the sharing of the path around it")
	}
	next, err := d.ReadCacheBound()
	if err != nil {
		t.Fatal(err)
	}
	if &next.Batch.Refreshes[0].Via[0] != &got[4].Via[0] {
		t.Error("the path is not shared across frames of one stream")
	}
}
