package runtime

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// putEntry stores e under a new object id directly in the store.
func putEntry(c *Cache, id string, e Entry) {
	c.mu.Lock()
	c.store.setEntry(c.store.insert(hashID(id), id), e)
	c.mu.Unlock()
}

// snapshotOf saves c and returns the snapshot bytes.
func snapshotOf(t testing.TB, c *Cache) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func cacheWithEntries(t *testing.T, entries map[string]Entry) *Cache {
	t.Helper()
	c := fastCache(transport.NewLocal(4), 1000)
	for id, e := range entries {
		putEntry(c, id, e)
	}
	return c
}

// TestSnapshotRoundTrip: save → load is exact, through Get, for every shape
// slot.entry can produce — direct, relayed with a path, an origin that is its
// own sender (stored as direct), no refresh time, a refresh time to the
// nanosecond, no sender.
func TestSnapshotRoundTrip(t *testing.T) {
	src := quietCache(nil)
	defer src.Close()
	apply(t, src,
		wire.Refresh{SourceID: "s1", ObjectID: "s1/direct", Value: 1.5, Version: 3, Epoch: 10},
		relayed("relay", "root/relayed", 4, 7),
		wire.Refresh{SourceID: "s2", ObjectID: "s2/self-origin", Origin: "s2", OriginEpoch: 9, OriginVersion: 9, Value: 2, Version: 5, Epoch: 20},
	)
	for id, e := range map[string]Entry{
		"set/no-time":   {Value: -1, Version: 2, Epoch: 3, Source: "s3", Origin: "root", OriginEpoch: 4, OriginVersion: 6, Hops: 2, Via: []string{"r1", "r2"}},
		"set/nanos":     {Value: 4, Version: 1, Epoch: 1, Source: "s3", Refreshed: time.Unix(0, 1700000000123456789)},
		"set/no-sender": {Value: 5, Version: 7, Epoch: 2},
	} {
		putEntry(src, id, e)
	}

	dst := quietCache(nil)
	defer dst.Close()
	if err := dst.LoadSnapshot(bytes.NewReader(snapshotOf(t, src))); err != nil {
		t.Fatalf("load: %v", err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("loaded %d entries, want %d", dst.Len(), src.Len())
	}
	for _, id := range []string{"s1/direct", "root/relayed", "s2/self-origin", "set/no-time", "set/nanos", "set/no-sender"} {
		want, _ := src.Get(id)
		if got, ok := dst.Get(id); !ok || !sameEntry(got, want) {
			t.Errorf("Get(%q) = %+v (ok=%v), want %+v", id, got, ok, want)
		}
	}
}

func TestSnapshotLoadNeverRegresses(t *testing.T) {
	// The live store has newer data than the snapshot; loading must keep
	// the live entries.
	old := cacheWithEntries(t, map[string]Entry{
		"x": {Value: 1, Version: 1, Epoch: 5},
		"y": {Value: 9, Version: 9, Epoch: 5},
	})
	snap := snapshotOf(t, old)
	old.Close()

	live := cacheWithEntries(t, map[string]Entry{
		"x": {Value: 2, Version: 7, Epoch: 5}, // newer version, same epoch
		"y": {Value: 3, Version: 1, Epoch: 6}, // newer epoch, lower version
	})
	defer live.Close()
	if err := live.LoadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if e, _ := live.Get("x"); e.Value != 2 {
		t.Errorf("x regressed to %v", e.Value)
	}
	if e, _ := live.Get("y"); e.Value != 3 {
		t.Errorf("y regressed to %v", e.Value)
	}
}

// TestSnapshotLoadNeverRegressesAcrossSenders is the regression test for
// the cross-sender snapshot bug: LoadSnapshot used to compare
// (Epoch, Version) across different senders — exactly what applyLocked
// forbids, because epochs from different nodes are incomparable wall-clock
// starts. A stale snapshot entry from a later-booted sender (larger epoch)
// would overwrite the live entry despite the "never regresses the store"
// promise. The live entry must win whenever the senders differ.
func TestSnapshotLoadNeverRegressesAcrossSenders(t *testing.T) {
	old := cacheWithEntries(t, map[string]Entry{
		// The snapshot's copy came from "s-late", a sender that booted
		// recently (big epoch) — but the value itself is old.
		"x": {Value: 1, Version: 9, Epoch: 100, Source: "s-late"},
		// Same-sender entry that IS newer than the live copy: still wins.
		"y": {Value: 8, Version: 5, Epoch: 100, Source: "s1"},
	})
	snap := snapshotOf(t, old)
	old.Close()

	live := cacheWithEntries(t, map[string]Entry{
		// The live feed for x comes from a different sender with a small
		// epoch (it booted long ago) and must not be shadowed.
		"x": {Value: 2, Version: 3, Epoch: 5, Source: "s-early"},
		"y": {Value: 7, Version: 2, Epoch: 100, Source: "s1"},
	})
	defer live.Close()
	if err := live.LoadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if e, _ := live.Get("x"); e.Value != 2 || e.Source != "s-early" {
		t.Errorf("cross-sender snapshot entry overwrote live copy: %+v", e)
	}
	if e, _ := live.Get("y"); e.Value != 8 {
		t.Errorf("same-sender newer snapshot entry lost: %+v", e)
	}
}

func TestSnapshotFileAtomicAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")

	c := cacheWithEntries(t, map[string]Entry{
		"k": {Value: 7, Version: 2, Epoch: 1},
	})
	defer c.Close()

	// Loading a missing file is fine (first boot).
	if err := c.LoadSnapshotFile(path); err != nil {
		t.Fatalf("missing-file load: %v", err)
	}
	if err := c.SaveSnapshotFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	fresh := cacheWithEntries(t, nil)
	defer fresh.Close()
	if err := fresh.LoadSnapshotFile(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	if e, ok := fresh.Get("k"); !ok || e.Value != 7 {
		t.Errorf("restored entry = %+v (ok=%v)", e, ok)
	}
	// No stray temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, ".snapshot-*"))
	if len(matches) != 0 {
		t.Errorf("temp files left behind: %v", matches)
	}
}

// expectSnapshotRefused asserts that loading in fails with an error naming
// the binary-codec format and merges nothing.
func expectSnapshotRefused(t *testing.T, name string, in []byte) {
	t.Helper()
	c := quietCache(nil)
	defer c.Close()
	if err := c.LoadSnapshot(bytes.NewReader(in)); err == nil || !strings.Contains(err.Error(), "binary-codec") {
		t.Errorf("%s: err = %v, want one naming the binary-codec format", name, err)
	}
	if c.Len() != 0 {
		t.Errorf("%s: %d objects merged from a refused snapshot", name, c.Len())
	}
}

// TestSnapshotCorruptInput: a stream that does not open with the codec
// prologue — garbage, an empty file, a snapshot an older build wrote in
// another encoding — is refused by the name of the format it expected.
func TestSnapshotCorruptInput(t *testing.T) {
	preCodec, err := os.ReadFile(filepath.Join("testdata", "pre-codec.snap"))
	if err != nil {
		t.Fatal(err)
	}
	expectSnapshotRefused(t, "garbage", []byte("not a snapshot"))
	expectSnapshotRefused(t, "empty", nil)
	expectSnapshotRefused(t, "pre-codec", preCodec)
}

// TestSnapshotVersionMismatch: the codec version is the format version; a
// snapshot with the right magic and another version is refused by name.
func TestSnapshotVersionMismatch(t *testing.T) {
	src := cacheWithEntries(t, map[string]Entry{"k": {Value: 7, Version: 2, Epoch: 1}})
	defer src.Close()
	tampered := snapshotOf(t, src)
	tampered[1] = codec.Version + 1
	expectSnapshotRefused(t, "version", tampered)
}

// savedStore saves a cache holding n direct objects, inserted in
// id order from s1/obj-0000 at version 5: one frame per slabChunk objects.
func savedStore(t *testing.T, n int) []byte {
	t.Helper()
	c := quietCache(nil)
	defer c.Close()
	for i := 0; i < n; i++ {
		putEntry(c, fmt.Sprintf("s1/obj-%04d", i), Entry{Value: float64(i), Version: 5, Epoch: 1, Source: "s1"})
	}
	return snapshotOf(t, c)
}

// TestSnapshotTruncatedMidFrame: a snapshot cut off inside its second frame
// returns an error, and the first frame, merged before the error, obeyed
// newer-wins: the live copy that is newer than the snapshot's stays.
func TestSnapshotTruncatedMidFrame(t *testing.T) {
	snap := savedStore(t, slabChunk+100)
	live := quietCache(nil)
	defer live.Close()
	putEntry(live, "s1/obj-0000", Entry{Value: -1, Version: 9, Epoch: 1, Source: "s1"})

	if err := live.LoadSnapshot(bytes.NewReader(snap[:len(snap)-1])); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	if n := live.Len(); n != slabChunk {
		t.Errorf("%d objects after the failed load, want the first frame's %d", n, slabChunk)
	}
	if e, _ := live.Get("s1/obj-0000"); e.Value != -1 || e.Version != 9 {
		t.Errorf("newer live copy regressed to %+v", e)
	}
}

// writeFunc is an io.Writer made of a function.
type writeFunc func([]byte) (int, error)

func (f writeFunc) Write(b []byte) (int, error) { return f(b) }

// TestSnapshotSaveHoldsNoLockAcrossWrite: a writer whose Write reads every
// object through Get and re-applies one, which takes the write lock,
// finishes — it would deadlock if SaveSnapshot held the cache lock across
// I/O — and sees the prologue plus one frame per slab chunk.
func TestSnapshotSaveHoldsNoLockAcrossWrite(t *testing.T) {
	c := quietCache(nil)
	defer c.Close()
	rs := make([]wire.Refresh, 3*slabChunk)
	for i := range rs {
		rs[i] = wire.Refresh{SourceID: "s1", ObjectID: fmt.Sprintf("s1/obj-%04d", i), Version: 1}
	}
	apply(t, c, rs...)

	writes := 0
	probe := writeFunc(func(b []byte) (int, error) {
		for i := range rs {
			if _, ok := c.Get(rs[i].ObjectID); !ok {
				return 0, fmt.Errorf("%q missing", rs[i].ObjectID)
			}
		}
		apply(t, c, rs[0]) // a re-send: dropped as stale under the write lock
		writes++
		return len(b), nil
	})
	done := make(chan error, 1)
	go func() { done <- c.SaveSnapshot(probe) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SaveSnapshot deadlocked: the cache lock is held across Write")
	}
	if want := 1 + 3; writes != want {
		t.Errorf("%d writes, want %d", writes, want)
	}
}

// FuzzLoadSnapshot: hostile snapshot bytes never panic, and a load that
// succeeds leaves every object id the stream carries readable by Get.
func FuzzLoadSnapshot(f *testing.F) {
	seed := quietCache(nil)
	putEntry(seed, "s1/a", Entry{Value: 1.5, Version: 3, Epoch: 10, Source: "s1", Refreshed: time.Unix(0, 1700000000123456789)})
	for _, id := range []string{"root/b", "root/c"} {
		putEntry(seed, id, Entry{Value: 7, Version: 4, Epoch: 1, Source: "relay", Origin: "root",
			OriginEpoch: 50, OriginVersion: 7, Hops: 1, Via: []string{"relay"}})
	}
	f.Add(snapshotOf(f, seed))
	seed.Close()
	f.Add([]byte{codec.Magic, codec.Version})
	f.Add([]byte{codec.Magic, codec.Version, codec.KindReply, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		c := quietCache(nil)
		defer c.Close()
		if c.LoadSnapshot(bytes.NewReader(in)) != nil {
			return
		}
		dec := codec.NewDecoder(bytes.NewReader(in[2:]))
		for {
			env, err := dec.ReadCacheBound()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("loaded a stream the codec rejects: %v", err)
			}
			for _, r := range env.Batch.Refreshes {
				if _, ok := c.Get(r.ObjectID); !ok {
					t.Fatalf("loaded object %q is not readable", r.ObjectID)
				}
			}
		}
	})
}

// TestSnapshotLoadIntoPopulatedStore: loading a snapshot into a store that
// already holds objects runs lookup-then-insert for every entry while the
// id index doubles underneath it. Overlapping ids keep the newer-wins
// rule, every new id lands once, and a save → load of the result into an
// empty cache gives the same store.
func TestSnapshotLoadIntoPopulatedStore(t *testing.T) {
	const live, snapped, overlap = 300, 2000, 150
	id := func(i int) string { return fmt.Sprintf("tenant-%04d/obj-1", i) }
	liveEntries := map[string]Entry{}
	for i := 0; i < live; i++ {
		liveEntries[id(i)] = Entry{Value: 1, Version: 5, Epoch: 1, Source: "s1"}
	}
	c := cacheWithEntries(t, liveEntries)
	defer c.Close()

	// The snapshot's first overlap ids overlap the tail of the live store:
	// odd ones are newer (they win), even ones older (the live copy stays).
	first := live - overlap
	snapEntries := map[string]Entry{}
	for i := first; i < first+snapped; i++ {
		e := Entry{Value: 2, Version: 1, Epoch: 1, Source: "s1"}
		if i < live && i%2 == 1 {
			e.Version = 9
		}
		snapEntries[id(i)] = e
	}
	snap := cacheWithEntries(t, snapEntries)
	saved := snapshotOf(t, snap)
	snap.Close()
	if err := c.LoadSnapshot(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}

	if n, want := c.Len(), first+snapped; n != want {
		t.Fatalf("len = %d, want %d", n, want)
	}
	want := map[string]Entry{}
	for i := 0; i < first+snapped; i++ {
		e, ok := c.Get(id(i))
		if !ok {
			t.Fatalf("%q missing after the load", id(i))
		}
		wantValue := 2.0
		if i < first || (i < live && i%2 == 0) {
			wantValue = 1
		}
		if e.Value != wantValue {
			t.Fatalf("%q = %+v, want value %v", id(i), e, wantValue)
		}
		want[id(i)] = e
	}

	again := cacheWithEntries(t, nil)
	defer again.Close()
	if err := again.LoadSnapshot(bytes.NewReader(snapshotOf(t, c))); err != nil {
		t.Fatal(err)
	}
	if again.Len() != len(want) {
		t.Fatalf("reloaded %d entries, want %d", again.Len(), len(want))
	}
	for k, e := range want {
		if got, ok := again.Get(k); !ok || got.Value != e.Value || got.Version != e.Version {
			t.Fatalf("reloaded %q = %+v, want %+v", k, got, e)
		}
	}
}

// BenchmarkSaveSnapshot saves a 16 384-object store, half direct and half
// relayed.
func BenchmarkSaveSnapshot(b *testing.B) {
	c := quietCache(nil)
	defer c.Close()
	for i := 0; i < 1<<14; i++ {
		e := Entry{Value: float64(i), Version: uint64(i), Epoch: 1, Source: "s1", Refreshed: time.Unix(0, int64(i))}
		if i%2 == 1 {
			e.Source, e.Origin, e.OriginEpoch, e.OriginVersion, e.Hops, e.Via = "relay", "root", 50, 7, 1, []string{"relay"}
		}
		putEntry(c, fmt.Sprintf("tenant-%02d/obj-%05d", i%64, i), e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SaveSnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
