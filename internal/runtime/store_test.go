package runtime

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// pump sends n distinct-object refreshes in batches of batch and waits for
// all of them to be applied.
func pump(t *testing.T, c *Cache, conn transport.SourceConn, n, batch int) {
	t.Helper()
	rs := make([]wire.Refresh, 0, batch)
	for i := 0; i < n; i++ {
		rs = append(rs, wire.Refresh{
			SourceID: "s1",
			ObjectID: fmt.Sprintf("s1/obj-%d", i),
			Value:    float64(i),
			Version:  1,
		})
		if len(rs) == batch || i == n-1 {
			if err := conn.SendBatch(rs); err != nil {
				t.Fatal(err)
			}
			rs = rs[:0]
		}
	}
	waitFor(t, 5*time.Second, func() bool { return c.Len() == n },
		fmt.Sprintf("%d objects to be applied", n))
}

func TestSingleShardBehavesLikeUnsharded(t *testing.T) {
	net := transport.NewLocal(64)
	c := fastCache(net, 1e7)
	defer c.Close()
	conn, err := net.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pump(t, c, conn, 50, 8)
	st := c.Stats()
	if st.Refreshes != 50 {
		t.Errorf("refreshes = %d, want 50", st.Refreshes)
	}
	for i := 0; i < 50; i++ {
		if _, ok := c.Get(fmt.Sprintf("s1/obj-%d", i)); !ok {
			t.Fatalf("object %d missing", i)
		}
	}
}

func TestShardStatsMerge(t *testing.T) {
	net := transport.NewLocal(64)
	c := fastCache(net, 1e7)
	defer c.Close()
	conn, err := net.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pump(t, c, conn, 200, 16)

	// Stats must account for every applied refresh.
	if st := c.Stats(); st.Refreshes != 200 {
		t.Errorf("refreshes = %d, want 200", st.Refreshes)
	}
}

func TestShardedStaleAndDivergenceAccounting(t *testing.T) {
	net := transport.NewLocal(64)
	c := fastCache(net, 1e7)
	defer c.Close()
	conn, err := net.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(ver uint64, val float64) {
		if err := conn.SendRefresh(wire.Refresh{
			SourceID: "s1", ObjectID: "s1/x", Version: ver, Value: val,
		}); err != nil {
			t.Fatal(err)
		}
	}
	send(2, 10)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := c.Get("s1/x")
		return ok && e.Version == 2
	}, "version 2 to land")
	send(1, 99) // stale: lower version, same (zero) epoch
	send(3, 14) // |14-10| = 4 divergence absorbed
	waitFor(t, 2*time.Second, func() bool {
		e, _ := c.Get("s1/x")
		return e.Version == 3
	}, "version 3 to land")
	waitFor(t, 2*time.Second, func() bool { return c.Stats().Stale == 1 },
		"stale drop to be counted")
	st := c.Stats()
	if st.Divergence != 4 {
		t.Errorf("divergence = %v, want 4", st.Divergence)
	}
	if e, _ := c.Get("s1/x"); e.Value != 14 {
		t.Errorf("value = %v, want 14", e.Value)
	}
}

func TestApplyRateGauge(t *testing.T) {
	net := transport.NewLocal(64)
	c := fastCache(net, 1e7)
	defer c.Close()
	if got := c.ApplyRate(); got != 0 {
		t.Errorf("initial apply rate = %v, want 0", got)
	}
	if got := c.Status(0).ApplyRate; got != 0 {
		t.Errorf("initial status apply rate = %v, want 0", got)
	}
}

// TestCacheGetAfterGrowth: objects applied while the store's id index
// doubled several times are all found by Get afterwards — ids that share a
// long prefix and suffix included — and ids never applied are not.
func TestCacheGetAfterGrowth(t *testing.T) {
	const objects, batch = 5000, 64
	c := quietCache(nil)
	defer c.Close()
	id := func(i int, kind string) string { return fmt.Sprintf("sensor-%05d/%s", i, kind) }
	for first := 0; first < objects; first += batch {
		rs := make([]wire.Refresh, 0, batch)
		for i := first; i < min(first+batch, objects); i++ {
			rs = append(rs, wire.Refresh{SourceID: "s1", ObjectID: id(i, "temperature"), Value: float64(i), Version: 1})
		}
		apply(t, c, rs...)
	}
	if n := c.Len(); n != objects {
		t.Fatalf("len = %d, want %d", n, objects)
	}
	for i := 0; i < objects; i++ {
		if e, ok := c.Get(id(i, "temperature")); !ok || e.Value != float64(i) {
			t.Fatalf("Get(%q) = %+v, %v", id(i, "temperature"), e, ok)
		}
		if _, ok := c.Get(id(i, "humidity")); ok {
			t.Fatalf("Get(%q) found an object that was never applied", id(i, "humidity"))
		}
	}
	if w := len(c.store.index.words); 2*int(c.store.n) > w || w < 1024 {
		t.Errorf("%d objects in a %d-slot index, want load ≤ ½ after several doublings", c.store.n, w)
	}
}

// sameEntry reports whether got is want field for field: Refreshed by Equal
// (a slot keeps no monotonic reading or location), everything else — Via's
// nil-ness included — exactly.
func sameEntry(got, want Entry) bool {
	if !got.Refreshed.Equal(want.Refreshed) {
		return false
	}
	got.Refreshed, want.Refreshed = time.Time{}, time.Time{}
	return reflect.DeepEqual(got, want)
}

// TestCacheSlotRoundTrip: a slot is at most 64 B, yet every Entry shape reads
// back exactly through Get — direct, relayed, an origin that is its own
// sender (stored as direct), a snapshot-loaded entry with no refresh time —
// while objects that arrived the same way share one route, more routes than
// the store's memo holds interleave without mixing, and takeAcks reads the
// origin axis from slot and route. A concurrent reader calling Get and every
// other read-lock site — Len, Stats, Status, ApplyRate, SaveSnapshot — gives
// the race detector every read path against the writer.
func TestCacheSlotRoundTrip(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 64 {
		t.Fatalf("slot is %d B, want ≤ 64", size)
	}
	clock := newFakeClock()
	c := NewCache(CacheConfig{
		ID: "leaf", Bandwidth: 1e9, Tick: time.Hour, Now: clock.Now,
	}, stubEndpoint{batches: make(chan transport.InboundBatch)})
	defer c.Close()
	at := clock.Now()

	want := map[string]Entry{}
	stop, readers := make(chan struct{}), sync.WaitGroup{}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 12; i++ {
				// A mesh entry's path is its sender: a torn read of slot and
				// route would show up as a mismatch.
				if e, ok := c.Get(fmt.Sprintf("mesh/o%02d", i)); ok && (len(e.Via) != 1 || e.Via[0] != e.Source) {
					t.Errorf("mesh/o%02d read torn: %+v", i, e)
					return
				}
			}
			if st := c.Status(8); st.Objects > c.Len() || st.Refreshes > c.Stats().Refreshes || c.ApplyRate() < 0 {
				t.Errorf("status %+v ran ahead of a later read", st)
				return
			}
			if err := c.SaveSnapshot(io.Discard); err != nil {
				t.Errorf("saving a snapshot beside the writer: %v", err)
				return
			}
		}
	}()

	apply(t, c,
		wire.Refresh{SourceID: "s1", ObjectID: "s1/a", Value: 1.5, Version: 3, Epoch: 10},
		relayed("relay", "root/b", 4, 7),
		wire.Refresh{SourceID: "s2", ObjectID: "s2/c", Origin: "s2", OriginEpoch: 9, OriginVersion: 9, Value: 2, Version: 5, Epoch: 20},
		relayed("relay", "root/e", 1, 1),
		relayed("relay", "root/f", 1, 1),
	)
	want["s1/a"] = Entry{Value: 1.5, Version: 3, Epoch: 10, Source: "s1", Refreshed: at}
	want["root/b"] = Entry{Value: 7, Version: 4, Epoch: 1, Source: "relay", Origin: "root",
		OriginEpoch: 50, OriginVersion: 7, Hops: 1, Via: []string{"relay"}, Refreshed: at}
	want["s2/c"] = Entry{Value: 2, Version: 5, Epoch: 20, Source: "s2", Refreshed: at}
	for _, id := range []string{"root/e", "root/f"} {
		want[id] = Entry{Value: 1, Version: 1, Epoch: 1, Source: "relay", Origin: "root",
			OriginEpoch: 50, OriginVersion: 1, Hops: 1, Via: []string{"relay"}, Refreshed: at}
	}

	snapped := Entry{Value: -1, Version: 2, Epoch: 3, Source: "s3", Origin: "root",
		OriginEpoch: 4, OriginVersion: 6, Hops: 2, Via: []string{"r1", "r2"}}
	saved := cacheWithEntries(t, map[string]Entry{"snap/d": snapped})
	snap := snapshotOf(t, saved)
	saved.Close()
	if err := c.LoadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	want["snap/d"] = snapped

	// Six senders, each over its own one-hop path, interleaved object by
	// object and then rotated: more routes than the memo holds.
	mesh := func(round int) {
		rs := make([]wire.Refresh, 12)
		for i := range rs {
			sender := fmt.Sprintf("p%d", (i+round)%6)
			rs[i] = wire.Refresh{SourceID: sender, ObjectID: fmt.Sprintf("mesh/o%02d", i), Origin: "root",
				OriginEpoch: 50, OriginVersion: uint64(round + 1), Hops: 1, Via: []string{sender},
				Value: float64(10*i + round), Version: uint64(round + 1), Epoch: int64(round + 2)}
			want[rs[i].ObjectID] = Entry{Value: rs[i].Value, Version: rs[i].Version, Epoch: rs[i].Epoch,
				Source: sender, Origin: "root", OriginEpoch: 50, OriginVersion: rs[i].OriginVersion,
				Hops: 1, Via: []string{sender}, Refreshed: at}
		}
		apply(t, c, rs...)
	}
	for round := 0; round < 3; round++ {
		clock.advance(time.Millisecond)
		at = clock.Now()
		mesh(round)
	}
	close(stop)
	readers.Wait()

	for id, w := range want {
		got, ok := c.Get(id)
		if !ok || !sameEntry(got, w) {
			t.Errorf("Get(%q) = %+v (ok=%v), want %+v", id, got, ok, w)
		}
	}
	if e, _ := c.Get("snap/d"); !e.Refreshed.IsZero() {
		t.Errorf("snapshot entry with no refresh time reads back Refreshed=%v, want the zero Time", e.Refreshed)
	}

	st := &c.store
	c.mu.RLock()
	e, f := st.at(st.find(hashID("root/e"), "root/e")), st.at(st.find(hashID("root/f"), "root/f"))
	shared := e.rt == f.rt
	c.mu.RUnlock()
	if !shared {
		t.Error("two objects from one sender over one path hold two route records, want one shared")
	}

	// A direct sender's stale re-send is acked with the slot's own axis; a
	// relayed one with the route's origin epoch and the slot's version.
	apply(t, c,
		wire.Refresh{SourceID: "s1", ObjectID: "s1/a", Value: 1.5, Version: 3, Epoch: 10},
		relayed("relay", "root/b", 4, 7),
		relayed("relay", "root/e", 1, 1),
		relayed("relay", "root/f", 1, 1),
	)
	acks := map[string]wire.HeldVersion{}
	for _, sender := range []string{"s1", "relay"} {
		for _, h := range c.takeAcks(sender) {
			acks[h.ObjectID] = h
		}
	}
	wantAcks := map[string]wire.HeldVersion{
		"s1/a":   {ObjectID: "s1/a", Epoch: 10, Version: 3},
		"root/b": {ObjectID: "root/b", Epoch: 50, Version: 7},
		"root/e": {ObjectID: "root/e", Epoch: 50, Version: 1},
		"root/f": {ObjectID: "root/f", Epoch: 50, Version: 1},
	}
	if !reflect.DeepEqual(acks, wantAcks) {
		t.Errorf("acks = %+v, want %+v", acks, wantAcks)
	}
}

// TestShardTaskLookupMatchesOneByOne: the dispatcher resolves a batch's ids in
// two passes — every home index word first, then each id from its word — and must
// end exactly where applying the same refreshes one batch each ends. The batch
// refreshes ids whose home words collide in the seeded 8-slot table, names two
// new ids twice each — one whose home slot is empty when the words are loaded,
// one whose home holds another id — and inserts enough new ids to double the
// index several times mid-batch before refreshing them all again, with a stale
// re-send and a superseded incarnation among them. Both id shapes run.
func TestShardTaskLookupMatchesOneByOne(t *testing.T) {
	for name, shape := range map[string]string{"distinct tails": "src-3/o%05d", "shared suffix": "sensor-%05d/temperature"} {
		t.Run(name, func(t *testing.T) {
			// Three ids that share a home slot of an 8-slot table (the top 3
			// bits of their hash), so they fill it and the two after it: the
			// seed leaves the index at that size.
			home := func(id string) uint64 { return hashID(id) >> 61 }
			var colliders []string
			for i := 0; len(colliders) < 3; i++ {
				id := fmt.Sprintf(shape, i)
				if len(colliders) == 0 || home(id) == home(colliders[0]) {
					colliders = append(colliders, id)
				}
			}
			// find returns the first id from i on whose home slot ok accepts.
			find := func(i int, ok func(slot uint64) bool) string {
				for ; !ok(home(fmt.Sprintf(shape, i))); i++ {
				}
				return fmt.Sprintf(shape, i)
			}
			fresh := find(90000, func(slot uint64) bool { return (slot-home(colliders[0]))%8 > 2 })
			foreign := find(80000, func(slot uint64) bool { return slot == home(colliders[0]) })
			at := func(id string, value float64, version uint64, epoch int64) wire.Refresh {
				return wire.Refresh{SourceID: "s", ObjectID: id, Value: value, Version: version, Epoch: epoch}
			}
			var seed, batch []wire.Refresh
			for _, id := range colliders {
				seed = append(seed, at(id, 1, 1, 5))
			}
			batch = append(batch,
				at(colliders[2], 2, 2, 5), at(colliders[1], 2, 2, 5), at(fresh, 1, 1, 5), at(foreign, 1, 1, 5),
				at(colliders[0], 1, 1, 5), at(fresh, 2, 2, 5), at(foreign, 2, 2, 5))
			for i := range 300 {
				batch = append(batch, at(fmt.Sprintf(shape, 50000+i), float64(i), 1, 5))
			}
			batch = append(batch,
				at(colliders[0], 3, 3, 5), at(colliders[1], 0, 9, 4), at(colliders[2], 3, 3, 5),
				at(fresh, 2, 2, 5), at(fresh, 3, 3, 5), at(foreign, 3, 3, 5))

			clock := newFakeClock()
			caches := [2]*Cache{}
			for i := range caches {
				caches[i] = NewCache(CacheConfig{ID: "leaf", Bandwidth: 1e9, Tick: time.Hour, Now: clock.Now},
					stubEndpoint{batches: make(chan transport.InboundBatch)})
				defer caches[i].Close()
				apply(t, caches[i], seed...)
			}
			batched, single := caches[0], caches[1]
			if w := len(batched.store.index.words); w != idMinSlots {
				t.Fatalf("seeded index has %d slots, want %d", w, idMinSlots)
			}
			apply(t, batched, batch...)
			for _, r := range batch {
				apply(t, single, r)
			}
			if w := len(batched.store.index.words); w < 64*idMinSlots {
				t.Fatalf("index has %d slots after the batch, want it grown mid-batch", w)
			}

			if got, want := batched.Len(), single.Len(); got != want || got != 3+2+300 {
				t.Fatalf("batched cache holds %d objects, one by one %d, want %d", got, want, 3+2+300)
			}
			for _, r := range append(seed, batch...) {
				got, ok1 := batched.Get(r.ObjectID)
				want, ok2 := single.Get(r.ObjectID)
				if !ok1 || !ok2 || !sameEntry(got, want) {
					t.Fatalf("%s: batched %+v (%v), one by one %+v (%v)", r.ObjectID, got, ok1, want, ok2)
				}
			}
			bs, ss := batched.Stats(), single.Stats()
			if bs.Refreshes != ss.Refreshes || bs.Stale != ss.Stale || bs.Divergence != ss.Divergence {
				t.Fatalf("batched refreshes/stale/divergence %d/%d/%v, one by one %d/%d/%v",
					bs.Refreshes, bs.Stale, bs.Divergence, ss.Refreshes, ss.Stale, ss.Divergence)
			}
			if bs.Stale != 3 {
				t.Fatalf("%d stale drops, want 3 (a re-send, an old incarnation, a repeated version)", bs.Stale)
			}
		})
	}
}
