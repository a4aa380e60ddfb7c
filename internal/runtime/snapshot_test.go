package runtime

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bestsync/internal/transport"
)

func cacheWithEntries(t *testing.T, entries map[string]Entry) *Cache {
	t.Helper()
	net := transport.NewLocal(4)
	c := fastCache(net, 1000)
	for id, e := range entries {
		sh, h := c.locate(id)
		sh.mu.Lock()
		sh.setEntry(sh.insert(h, id), e)
		sh.mu.Unlock()
	}
	return c
}

func TestSnapshotRoundTrip(t *testing.T) {
	now := time.Now().Round(0)
	src := cacheWithEntries(t, map[string]Entry{
		"a": {Value: 1.5, Version: 3, Epoch: 10, Source: "s1", Refreshed: now},
		"b": {Value: -2, Version: 1, Epoch: 10, Source: "s2", Refreshed: now},
	})
	defer src.Close()

	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	dst := cacheWithEntries(t, nil)
	defer dst.Close()
	if err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatalf("load: %v", err)
	}
	if dst.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", dst.Len())
	}
	e, ok := dst.Get("a")
	if !ok || e.Value != 1.5 || e.Version != 3 || e.Source != "s1" {
		t.Errorf("entry a = %+v", e)
	}
}

func TestSnapshotLoadNeverRegresses(t *testing.T) {
	// The live store has newer data than the snapshot; loading must keep
	// the live entries.
	var buf bytes.Buffer
	old := cacheWithEntries(t, map[string]Entry{
		"x": {Value: 1, Version: 1, Epoch: 5},
		"y": {Value: 9, Version: 9, Epoch: 5},
	})
	if err := old.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	old.Close()

	live := cacheWithEntries(t, map[string]Entry{
		"x": {Value: 2, Version: 7, Epoch: 5}, // newer version, same epoch
		"y": {Value: 3, Version: 1, Epoch: 6}, // newer epoch, lower version
	})
	defer live.Close()
	if err := live.LoadSnapshot(&buf); err != nil {
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
	var buf bytes.Buffer
	old := cacheWithEntries(t, map[string]Entry{
		// The snapshot's copy came from "s-late", a sender that booted
		// recently (big epoch) — but the value itself is old.
		"x": {Value: 1, Version: 9, Epoch: 100, Source: "s-late"},
		// Same-sender entry that IS newer than the live copy: still wins.
		"y": {Value: 8, Version: 5, Epoch: 100, Source: "s1"},
	})
	if err := old.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	old.Close()

	live := cacheWithEntries(t, map[string]Entry{
		// The live feed for x comes from a different sender with a small
		// epoch (it booted long ago) and must not be shadowed.
		"x": {Value: 2, Version: 3, Epoch: 5, Source: "s-early"},
		"y": {Value: 7, Version: 2, Epoch: 100, Source: "s1"},
	})
	defer live.Close()
	if err := live.LoadSnapshot(&buf); err != nil {
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

func TestSnapshotCorruptInput(t *testing.T) {
	c := cacheWithEntries(t, nil)
	defer c.Close()
	if err := c.LoadSnapshot(strings.NewReader("not a gob stream")); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestSnapshotVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	c := cacheWithEntries(t, nil)
	defer c.Close()
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Tamper: re-encode with a wrong version by decoding and rewriting is
	// overkill; simply verify the version constant is enforced by loading
	// a hand-built stream.
	var tampered bytes.Buffer
	enc := gob.NewEncoder(&tampered)
	if err := enc.Encode(snapshot{Version: 99}); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadSnapshot(&tampered); err == nil {
		t.Error("version-mismatched snapshot accepted")
	}
}

// TestSnapshotLoadIntoPopulatedStore: loading a snapshot into a store that
// already holds objects runs lookup-then-insert for every entry while the
// shard indexes double underneath it. Overlapping ids keep the newer-wins
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
	var buf bytes.Buffer
	if err := snap.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap.Close()
	if err := c.LoadSnapshot(&buf); err != nil {
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

	buf.Reset()
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	again := cacheWithEntries(t, nil)
	defer again.Close()
	if err := again.LoadSnapshot(&buf); err != nil {
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
