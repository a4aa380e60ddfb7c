package runtime

import (
	"fmt"
	stdruntime "runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// TestSourceProvenanceColumn pins the object slab's provenance column on a
// relay-shaped Source whose keys span two column chunks: local values, relayed
// values, relayed values whose path names the receiver, and overwrites in both
// directions. Whatever the column stores — or, for a key range no relayed value
// reached, does not store — every refresh on the wire carries exactly the
// provenance of its object's last update, split horizon excludes exactly the
// values whose path names the peer in both kinds of group, and the origin axis of
// a locally produced value is the source's own. Values that arrived the same
// way share one route record.
func TestSourceProvenanceColumn(t *testing.T) {
	// Every chunk is a size class exactly: the header a pointer-holding object
	// under 32 KiB carries would push a chunk sized otherwise one class up.
	if size := unsafe.Sizeof(objState{}); size*objChunkLen != 32<<10 {
		t.Errorf("objState is %d bytes: a chunk of %d is no longer 32 KiB", size, objChunkLen)
	}
	if size := unsafe.Sizeof(provSlot{}); size*provChunkLen != 32<<10 {
		t.Errorf("provSlot is %d bytes: a column chunk of %d is no longer 32 KiB", size, provChunkLen)
	}
	if size := unsafe.Sizeof(schedObj{}); size*objChunkLen != 28672 {
		t.Errorf("schedObj is %d bytes: a scheduler chunk of %d is no longer the 28 672 B class", size, objChunkLen)
	}
	for _, group := range []bool{false, true} {
		name := "session"
		if group {
			name = "group"
		}
		t.Run(name, func(t *testing.T) { provenanceColumnLeg(t, group) })
	}

	// An origin that only ever saw Update stores no provenance at all.
	local := transport.NewLocal(1)
	defer local.Close()
	conn, err := local.Dial("origin")
	if err != nil {
		t.Fatal(err)
	}
	origin := NewSource(SourceConfig{ID: "origin", Metric: metric.ValueDeviation, Tick: time.Hour}, conn)
	defer origin.Close()
	for k := range 2 * provChunkLen {
		origin.Update(fmt.Sprintf("origin/o%04d", k), float64(k))
	}
	origin.mu.Lock()
	if n := len(origin.order.provs); n != 0 {
		t.Errorf("an origin that only saw Update holds %d provenance chunks, want 0", n)
	}
	origin.mu.Unlock()

	// A relay whose values all arrived one way holds one route, though every
	// update brings its own copy of the path.
	conn, err = local.Dial("relay")
	if err != nil {
		t.Fatal(err)
	}
	relay := NewSource(SourceConfig{ID: "relay", Metric: metric.ValueDeviation, Tick: time.Hour}, conn)
	defer relay.Close()
	for k := range 2 * provChunkLen {
		relay.UpdateFrom(fmt.Sprintf("up/o%04d", k), float64(k),
			Provenance{Origin: "up", Hops: 1, Via: []string{"relay"}, Epoch: 77, Version: uint64(k + 1)})
	}
	relay.mu.Lock()
	defer relay.mu.Unlock()
	if n := provRoutes(&relay.order); n != 1 {
		t.Errorf("a relay whose values all arrived one way holds %d routes, want 1", n)
	}
}

// provRoutes counts the distinct routes the slab's objects point to.
func provRoutes(t *objSlab) int {
	seen := map[*provRoute]bool{}
	for _, c := range t.provs {
		if c != nil {
			for i := range c {
				if rt := c[i].rt; rt != nil {
					seen[rt] = true
				}
			}
		}
	}
	return len(seen)
}

func provenanceColumnLeg(t *testing.T, group bool) {
	const objects = 2 * provChunkLen // both sides of a column chunk boundary
	local := transport.NewLocal(4 * objects)
	defer local.Close()
	conn, err := local.Dial("relay")
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	src, err := NewFanoutSource(SourceConfig{
		ID: "relay", Metric: metric.ValueDeviation, Bandwidth: 1e5,
		Tick: time.Hour, Params: pinnedParams(1e-6), Now: clock.Now, // passes run by hand
		// A queue deep enough for a whole pass: an overrun would make the
		// member lag mid-pass.
		Group: GroupConfig{Enabled: group, Queue: 64},
	}, []Destination{{CacheID: "leaf", Conn: conn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ss := src.sessions[0]
	if shared := ss.group == src.group; shared != group {
		t.Fatalf("member of the shared group=%v, want %v", shared, group)
	}
	ss.onFeedback(wire.Feedback{CacheID: "leaf"}) // the peer's identity, for split horizon

	ids := make([]string, objects)
	for k := range ids {
		ids[k] = fmt.Sprintf("up/o%04d", k)
	}
	relayedVia := func(k int, via ...string) Provenance {
		return Provenance{Origin: "up", Hops: len(via), Via: via, Epoch: 77, Version: uint64(1000 + k)}
	}
	// want is each object's last provenance; excluded marks a path through
	// the peer.
	want := make([]Provenance, objects)
	update := func(k int, v float64, p Provenance) {
		src.UpdateFrom(ids[k], v, p)
		want[k] = p
	}
	excluded := func(k int) bool { return want[k].passedThrough("leaf") }
	flush := func() map[string]wire.Refresh {
		clock.advance(time.Second)
		ss.group.pass(false)
		for ss.inflight.Load() != 0 {
			stdruntime.Gosched()
		}
		if p := src.Stats().Sessions[0].Pending; p != 0 {
			t.Fatalf("the member lags on %d objects: the pass was not delivered whole", p)
		}
		got := map[string]wire.Refresh{}
		for {
			select {
			case b := <-local.Batches():
				for _, r := range b.Refreshes {
					if _, dup := got[r.ObjectID]; dup {
						t.Errorf("%s refreshed twice in one flush", r.ObjectID)
					}
					got[r.ObjectID] = r
				}
				continue
			default:
			}
			return got
		}
	}
	check := func(phase string, touched func(k int) bool) {
		t.Helper()
		got := flush()
		for k, id := range ids {
			r, sent := got[id]
			switch {
			case !touched(k):
				if sent {
					t.Errorf("%s: %s refreshed without an update", phase, id)
				}
			case excluded(k):
				if sent {
					t.Errorf("%s: %s sent to the peer on its path %v", phase, id, want[k].Via)
				}
			case !sent:
				t.Errorf("%s: %s not refreshed", phase, id)
			default:
				p := want[k]
				if r.Origin != p.Origin || r.Hops != p.Hops || !slices.Equal(r.Via, p.Via) ||
					r.OriginEpoch != p.Epoch || r.OriginVersion != p.Version {
					t.Errorf("%s: %s carries origin=%q hops=%d via=%v axis=(%d,%d), want %+v",
						phase, id, r.Origin, r.Hops, r.Via, r.OriginEpoch, r.OriginVersion, p)
				}
			}
		}
		src.mu.Lock()
		defer src.mu.Unlock()
		for k, id := range ids {
			if !touched(k) {
				continue
			}
			o, _ := src.objLocked(id)
			p := src.order.prov(o.key)
			if p.Origin != want[k].Origin || p.Hops != want[k].Hops || !slices.Equal(p.Via, want[k].Via) ||
				p.Epoch != want[k].Epoch || p.Version != want[k].Version {
				t.Errorf("%s: %s stored provenance %+v, want %+v", phase, id, p, want[k])
			}
			e, v := src.originAxisLocked(o)
			we, wv := want[k].Epoch, want[k].Version
			if we == 0 {
				we, wv = src.started.UnixNano(), o.version // a local value is on the source's axis
			}
			if e != we || v != wv {
				t.Errorf("%s: %s origin axis (%d, %d), want (%d, %d)", phase, id, e, v, we, wv)
			}
		}
	}

	// Phase 1: a third each local, relayed, and relayed through the peer,
	// so both column chunks are allocated and both hold zero entries.
	for k := range ids {
		switch k % 3 {
		case 0:
			update(k, float64(k), Provenance{})
		case 1:
			update(k, float64(k), relayedVia(k, "mid", "relay"))
		case 2:
			update(k, float64(k), relayedVia(k, "leaf", "relay"))
		}
	}
	check("first updates", func(int) bool { return true })
	src.mu.Lock()
	if n := len(src.order.provs); n != 2 || src.order.provs[0] == nil || src.order.provs[1] == nil {
		t.Errorf("relay holds %d provenance chunks, want both of 2", n)
	}
	if n := provRoutes(&src.order); n != 2 {
		t.Errorf("values over two paths left %d routes, want 2", n)
	}
	src.mu.Unlock()

	// Phase 2, on both sides of the boundary: a relayed value overwritten by a
	// local one (the column must be written with zero, not skipped), a local
	// value overwritten by a relayed one, a value through the peer overwritten
	// by a local one (now sendable), and a local one by a value through the
	// peer (now excluded).
	const b = provChunkLen // b % 3 == 2
	overwrites := map[int]Provenance{
		1: {}, b + 2: {}, // relayed → local
		3: relayedVia(3, "mid", "relay"), b + 1: relayedVia(b+1, "mid", "relay"), // local → relayed
		2: {}, b + 3: {}, // through the peer → local
		6: relayedVia(6, "leaf", "relay"), b + 4: relayedVia(b+4, "leaf", "relay"), // local → through the peer
	}
	// The area priority of a change is its divergence × the time since the
	// last refresh, so the overwrites land a second after it.
	clock.advance(time.Second)
	for k, p := range overwrites {
		update(k, float64(objects+k), p)
	}
	check("overwrites", func(k int) bool { _, ok := overwrites[k]; return ok })
}

// TestSourceCloseWithNoReader: Source.Close returns on a Local network that
// nothing reads, with its one-slot queue full and a sender worker blocked on
// the next frame: closing the connection wakes the blocked send. Both kinds
// of group send on workers of their own kind, so both are checked. Close
// runs under a timeout of its own, so a hang fails the test rather than the
// run.
func TestSourceCloseWithNoReader(t *testing.T) {
	for _, shared := range []bool{false, true} {
		name := "group of one"
		if shared {
			name = "shared group"
		}
		t.Run(name, func(t *testing.T) {
			local := transport.NewLocal(1)
			defer local.Close()
			conn, err := local.Dial("origin")
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewFanoutSource(SourceConfig{
				ID: "origin", Metric: metric.ValueDeviation, Bandwidth: 1e6, Tick: time.Millisecond,
				Params: pinnedParams(1e-6), Group: GroupConfig{Enabled: shared},
			}, []Destination{{CacheID: "leaf", Conn: conn}})
			if err != nil {
				t.Fatal(err)
			}
			for i := range 4 * 64 {
				src.Update(fmt.Sprintf("obj-%04d", i), 1)
			}
			ss := src.sessions[0]
			waitFor(t, 5*time.Second, func() bool {
				return len(local.Batches()) == cap(local.Batches()) && ss.inflight.Load() > 0
			}, "a send blocked on the full queue")
			closed := make(chan error, 1)
			go func() { closed <- src.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Source.Close hung on a network nobody reads")
			}
		})
	}
}

// TestSourceRoutesDoNotAccumulate is the Source counterpart of
// TestCacheRoutesDoNotAccumulate: an upstream that gives every relayed object
// its own path costs the relay one route per object only while those values
// live. Once one path has overwritten them all, the relay holds one route.
// TestSourceRoutesHeapDoesNotAccumulate checks the heap that leaves behind.
func TestSourceRoutesDoNotAccumulate(t *testing.T) {
	relayRoutesHeld(t, false)
	relayRoutesHeld(t, true)
}

// relayRoutesHeld runs a relay of 4 096 objects through one round whose
// values arrived by one path, or with spray by a path per object, then a
// round by the one path. It checks the routes each round leaves and returns
// the live heap the relay holds after the second.
func relayRoutesHeld(t *testing.T, spray bool) int64 {
	t.Helper()
	const objects = 4096
	ids := make([]string, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("root/o%05d", i)
	}
	onePath := []string{"relay"}
	before := liveHeap()
	src, err := NewFanoutSource(SourceConfig{
		ID: "relay", Metric: metric.ValueDeviation, Bandwidth: 0.001, Tick: time.Hour,
	}, []Destination{{CacheID: "leaf", Conn: newFrameConn("leaf")}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	round := func(v uint64, path func(i int) []string) {
		for i, id := range ids {
			via := path(i)
			src.UpdateFrom(id, float64(v), Provenance{Origin: "root", Hops: len(via), Via: via, Epoch: 9, Version: v})
		}
	}
	if spray {
		round(1, func(i int) []string { return []string{fmt.Sprintf("hop-%05d", i), "relay"} })
	} else {
		round(1, func(int) []string { return onePath })
	}
	src.mu.Lock()
	n := provRoutes(&src.order)
	src.mu.Unlock()
	if want := map[bool]int{false: 1, true: objects}[spray]; n != want {
		t.Fatalf("spray=%v: the first round left %d routes, want %d", spray, n, want)
	}
	round(2, func(int) []string { return onePath })
	src.mu.Lock()
	n = provRoutes(&src.order)
	src.mu.Unlock()
	if n != 1 {
		t.Fatalf("spray=%v: one path over every object left %d routes, want 1", spray, n)
	}
	return liveHeap() - before
}

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() int64 {
	var ms stdruntime.MemStats
	stdruntime.GC()
	stdruntime.GC()
	stdruntime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
