package runtime

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// SaveSnapshot writes the current store to w, so a cache daemon can persist
// across restarts without re-fetching every object from its sources. A
// snapshot is a binary-codec stream (spec §10): the prologue {codec.Magic,
// codec.Version}, then one batch frame per slab chunk holding one
// wire.Refresh per object — Entry.Source as SourceID, Refreshed as SentUnix
// (0 for the zero Time), every other field under its own name. The read lock
// is held only while a chunk is copied out, never across a Write.
func (c *Cache) SaveSnapshot(w io.Writer) error {
	if _, err := w.Write([]byte{codec.Magic, codec.Version}); err != nil {
		return err
	}
	var enc codec.Encoder
	var buf []byte
	rs := make([]wire.Refresh, 0, slabChunk)
	for start := int32(0); ; start += slabChunk {
		c.mu.RLock()
		rs = c.store.appendChunk(rs[:0], start)
		c.mu.RUnlock()
		if len(rs) == 0 {
			return nil
		}
		buf = enc.AppendBatch(buf[:0], wire.RefreshBatch{Refreshes: rs})
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
}

// appendChunk appends one wire.Refresh per slot of the slab chunk that starts
// at slab index start — the form a snapshot, and a Node's store re-export,
// carry entries in — and returns rs. Caller holds the lock.
func (st *store) appendChunk(rs []wire.Refresh, start int32) []wire.Refresh {
	for i := start; i < min(st.n, start+slabChunk); i++ {
		s := st.at(i)
		rs = append(rs, wire.Refresh{
			SourceID: s.rt.sender, ObjectID: s.id, Origin: s.rt.origin, Hops: s.rt.hops, Via: s.rt.via,
			OriginEpoch: s.rt.originEpoch, OriginVersion: s.originVersion,
			Value: s.value, Version: s.version, Epoch: s.epoch, SentUnix: s.refreshed,
		})
	}
	return rs
}

// LoadSnapshot merges a previously saved store into the cache. A live entry always wins over a snapshot
// entry from a different sender, and wins over a same-sender snapshot entry
// unless that one is newer (by source epoch, then version) — so loading an
// old snapshot under traffic never regresses the store. The cross-sender
// rule mirrors applyLocked's per-sender staleness guard: epochs from
// different nodes are incomparable wall-clock starts, and comparing them
// would let a snapshot entry from a later-booted sender (larger epoch, any
// age) overwrite a live feed.
//
// Frames merge as they are read: a stream cut off or corrupt mid-frame
// returns an error, and the frames before it stay merged under the same
// rule. A stream that does not open with the prologue — a snapshot an older
// build wrote in another encoding, say — is refused before anything merges.
func (c *Cache) LoadSnapshot(r io.Reader) error {
	br := bufio.NewReader(r)
	var prologue [2]byte
	if _, err := io.ReadFull(br, prologue[:]); err != nil {
		return fmt.Errorf("runtime: reading the binary-codec snapshot prologue: %w", err)
	}
	if want := [2]byte{codec.Magic, codec.Version}; prologue != want {
		return fmt.Errorf("runtime: snapshot starts %x, not the binary-codec prologue %x; delete a snapshot in another format or codec version", prologue, want)
	}
	dec := codec.NewDecoder(br)
	for {
		env, err := dec.ReadCacheBound()
		if err == io.EOF {
			return nil
		}
		if err == nil && env.Batch == nil {
			err = fmt.Errorf("poll-reply frame")
		}
		if err != nil {
			return fmt.Errorf("runtime: decoding snapshot: %w", err)
		}
		for i := range env.Batch.Refreshes {
			rf := &env.Batch.Refreshes[i]
			if rf.ObjectID == "" || rf.Hops < 0 {
				return fmt.Errorf("runtime: decoding snapshot: malformed record for %q", rf.ObjectID)
			}
			e := Entry{Value: rf.Value, Version: rf.Version, Epoch: rf.Epoch, Source: rf.SourceID, Origin: rf.Origin,
				OriginEpoch: rf.OriginEpoch, OriginVersion: rf.OriginVersion, Hops: rf.Hops, Via: rf.Via}
			if rf.SentUnix != 0 {
				e.Refreshed = time.Unix(0, rf.SentUnix)
			}
			h, st := hashID(rf.ObjectID), &c.store
			c.mu.Lock()
			if j := st.find(h, rf.ObjectID); j < 0 {
				st.setEntry(st.insert(h, rf.ObjectID), e)
			} else if cur := st.at(j); cur.rt.sender == e.Source &&
				(cur.epoch < e.Epoch || (cur.epoch == e.Epoch && cur.version < e.Version)) {
				st.setEntry(j, e)
			}
			c.mu.Unlock()
		}
	}
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
