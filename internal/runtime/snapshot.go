package runtime

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// snapshot is the serialized cache store.
type snapshot struct {
	Version int
	Store   map[string]Entry
}

// SaveSnapshot writes the current store to w (gob-encoded). A cache daemon
// can persist across restarts without re-fetching every object from its
// sources. Shards are serialized into one flat map, so snapshots survive
// shard-count changes between runs.
func (c *Cache) SaveSnapshot(w io.Writer) error {
	snap := snapshot{Version: snapshotVersion, Store: map[string]Entry{}}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := int32(0); i < sh.n; i++ {
			var e Entry
			sl := sh.at(i)
			sl.entry(&e)
			snap.Store[sl.id] = e
		}
		sh.mu.Unlock()
	}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadSnapshot merges a previously saved store into the cache, distributing
// entries to their owning shards. A live entry always wins over a snapshot
// entry from a different sender, and wins over a same-sender snapshot entry
// unless that one is newer (by source epoch, then version) — so loading an
// old snapshot under traffic never regresses the store. The cross-sender
// rule mirrors applyLocked's per-sender staleness guard: epochs from
// different nodes are incomparable wall-clock starts, and comparing them
// would let a snapshot entry from a later-booted sender (larger epoch, any
// age) overwrite a live feed.
func (c *Cache) LoadSnapshot(r io.Reader) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("runtime: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("runtime: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	for id, e := range snap.Store {
		sh, h := c.locate(id)
		sh.mu.Lock()
		if i := sh.find(h, id); i < 0 {
			sh.setEntry(sh.insert(h, id), e)
		} else if cur := sh.at(i); cur.rt.sender == e.Source &&
			(cur.epoch < e.Epoch || (cur.epoch == e.Epoch && cur.version < e.Version)) {
			sh.setEntry(i, e)
		}
		sh.mu.Unlock()
	}
	return nil
}

// SaveSnapshotFile atomically writes the store to path (temp file + rename),
// so a crash mid-save never corrupts the previous snapshot.
func (c *Cache) SaveSnapshotFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := c.SaveSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadSnapshotFile loads a snapshot from path; a missing file is not an
// error (first boot).
func (c *Cache) LoadSnapshotFile(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return c.LoadSnapshot(f)
}
