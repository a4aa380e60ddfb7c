package runtime

import (
	"bytes"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// TestOriginAxisGuardNoRegression pins the snapshot-age fix at the cache:
// a relay RESTART re-issues a fresh sender epoch, so its re-export of an
// old value passes the per-sender staleness guard — before the origin-axis
// guard, that regressed any cache that was ahead of the relay's snapshot.
func TestOriginAxisGuardNoRegression(t *testing.T) {
	net := transport.NewLocal(16)
	cache := NewCache(CacheConfig{ID: "leaf", Bandwidth: 10000, Tick: 5 * time.Millisecond}, net)
	defer cache.Close()
	conn, err := net.Dial("relay")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(senderEpoch int64, senderVer uint64, originVer uint64, value float64) {
		t.Helper()
		if err := conn.SendRefresh(wire.Refresh{
			SourceID: "relay", ObjectID: "root/x",
			Origin: "root", Hops: 1, Via: []string{"relay"},
			OriginEpoch: 50, OriginVersion: originVer,
			Value: value, Version: senderVer, Epoch: senderEpoch,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Relay incarnation 1 delivers origin version 5.
	send(100, 7, 5, 50)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := cache.Get("root/x")
		return ok && e.Value == 50
	}, "initial relayed value")

	// Incarnation 2 (fresh, larger sender epoch) re-exports its snapshot-age
	// copy: origin version 3. The per-sender guard alone would apply it.
	send(200, 1, 3, 30)
	waitFor(t, 2*time.Second, func() bool {
		return cache.Stats().Stale >= 1
	}, "stale drop of the snapshot-age re-export")
	if e, _ := cache.Get("root/x"); e.Value != 50 {
		t.Fatalf("cache regressed to %v; the origin-axis guard must keep 50", e.Value)
	}

	// The same incarnation delivering genuinely newer origin state must
	// still get through — the guard compares versions, not incarnations.
	send(200, 2, 6, 60)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := cache.Get("root/x")
		return ok && e.Value == 60
	}, "newer origin version from the restarted relay")

	// And the origin axis survived on the entry for the next hop.
	if e, _ := cache.Get("root/x"); e.OriginEpoch != 50 || e.OriginVersion != 6 {
		t.Errorf("entry origin axis = (%d, %d), want (50, 6)", e.OriginEpoch, e.OriginVersion)
	}
}

// TestSessionHeldSkip pins the sender half: a held-version ack recorded
// from feedback cancels scheduled sends the cache is already at-or-ahead
// of — including acks that arrive BEFORE the object exists at this source
// (the relay-restored-from-snapshot ordering).
func TestSessionHeldSkip(t *testing.T) {
	fc := newFakeConn()
	src := NewSource(SourceConfig{
		ID: "relay", Metric: metric.ValueDeviation,
		Bandwidth: 1000, Tick: 2 * time.Millisecond,
	}, fc)
	defer src.Close()

	// The cache acks origin version 5 before the relay has the object.
	fc.fb <- wire.Feedback{CacheID: "child", Held: []wire.HeldVersion{
		{ObjectID: "root/x", Epoch: 50, Version: 5},
	}}
	waitFor(t, 2*time.Second, func() bool {
		return src.Stats().Feedbacks == 1
	}, "feedback processed")

	// The snapshot-age value (origin version 3) is observed: covered by the
	// ack, so it must be skipped, not sent.
	src.UpdateFrom("root/x", 30, Provenance{
		Origin: "root", Hops: 1, Via: []string{"relay"}, Epoch: 50, Version: 3,
	})
	waitFor(t, 2*time.Second, func() bool {
		return src.Stats().Sessions[0].HeldSkips == 1
	}, "held-skip of the covered value")
	time.Sleep(20 * time.Millisecond) // several flush ticks
	if got := len(fc.sentMsgs()); got != 0 {
		t.Fatalf("covered value was sent anyway (%d refreshes)", got)
	}
	if pending := src.Stats().Pending; pending != 0 {
		t.Errorf("skipped object still queued (pending=%d)", pending)
	}

	// A newer origin version is NOT covered: it must go out, stamped with
	// the preserved origin axis.
	src.UpdateFrom("root/x", 60, Provenance{
		Origin: "root", Hops: 1, Via: []string{"relay"}, Epoch: 50, Version: 6,
	})
	waitFor(t, 2*time.Second, func() bool {
		return len(fc.sentMsgs()) == 1
	}, "uncovered value sent")
	sent := fc.sentMsgs()[0]
	if sent.Origin != "root" || sent.OriginEpoch != 50 || sent.OriginVersion != 6 {
		t.Errorf("sent refresh origin axis = %q (%d, %d), want root (50, 6)",
			sent.Origin, sent.OriginEpoch, sent.OriginVersion)
	}
}

// TestEndedSessionDropsParkedAcks: an ack parked for an object the source
// never produced is released when the session ends. An ended session stays
// in the source for its stats row, and nothing folds its parked acks in
// afterwards, so keeping them would hold up to maxHeldPending acks forever.
func TestEndedSessionDropsParkedAcks(t *testing.T) {
	fc := newFakeConn()
	src := NewSource(SourceConfig{
		ID: "relay", Metric: metric.ValueDeviation,
		Bandwidth: 1000, Tick: 2 * time.Millisecond,
	}, fc)
	defer src.Close()
	fc.fb <- wire.Feedback{CacheID: "child", Held: []wire.HeldVersion{
		{ObjectID: "root/never", Epoch: 50, Version: 5},
	}}
	waitFor(t, 2*time.Second, func() bool {
		return src.Stats().Feedbacks == 1
	}, "feedback processed")
	fc.Close() // no redial hook: the session ends
	waitFor(t, 2*time.Second, func() bool {
		return src.Stats().Sessions[0].Ended
	}, "session ended")
	src.mu.Lock()
	parked := len(src.sessions[0].heldPending)
	src.mu.Unlock()
	if parked != 0 {
		t.Fatalf("ended session still parks %d acks", parked)
	}
}

// TestReexportStoreSkipsAheadChild is the end-to-end regression test for
// the ROADMAP's snapshot-age window: a relay restarts from a snapshot
// OLDER than what its child holds, re-exports the restored store, and the
// child must come out unharmed — the stale re-export is either cancelled
// at the relay (held-version feedback) or dropped at the child (origin-axis
// guard), never applied.
func TestReexportStoreSkipsAheadChild(t *testing.T) {
	leafNet := transport.NewLocal(16)
	leaf := NewCache(CacheConfig{ID: "leaf", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafNet)
	defer leaf.Close()

	newRelay := func() (*Node, transport.SourceConn) {
		childConn, err := leafNet.Dial("relay-r")
		if err != nil {
			t.Fatal(err)
		}
		upNet := transport.NewLocal(16)
		relay, err := NewNode(NodeConfig{
			ID:            "relay-r",
			Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
			PeerBandwidth: 10000,
			Metric:        metric.ValueDeviation,
			Tick:          5 * time.Millisecond,
		}, upNet, []Destination{{CacheID: "leaf", Conn: childConn}})
		if err != nil {
			t.Fatal(err)
		}
		up, err := upNet.Dial("root")
		if err != nil {
			t.Fatal(err)
		}
		return relay, up
	}

	relay1, up1 := newRelay()
	send := func(up transport.SourceConn, version uint64, value float64) {
		t.Helper()
		if err := up.SendRefresh(wire.Refresh{
			SourceID: "root", ObjectID: "root/obj",
			Value: value, Version: version, Epoch: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Snapshot the relay at origin version 2...
	send(up1, 1, 10)
	send(up1, 2, 20)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := relay1.Get("root/obj")
		return ok && e.Version == 2
	}, "relay 1 at version 2")
	var snap bytes.Buffer
	if err := relay1.Cache().SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// ...then advance the child PAST the snapshot before the relay "dies".
	send(up1, 3, 30)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := leaf.Get("root/obj")
		return ok && e.Value == 30
	}, "leaf ahead of the snapshot")
	relay1.Close()

	// Restart: same relay identity, snapshot-age store, same child.
	relay2, up2 := newRelay()
	defer relay2.Close()
	if err := relay2.Cache().LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	relay2.ReexportStore()

	// The re-export resolves as a held-skip at the relay or a stale drop at
	// the child — one of the two must fire, and the child must keep 30.
	waitFor(t, 2*time.Second, func() bool {
		heldSkips := 0
		for _, sess := range relay2.Stats().Peers.Sessions {
			heldSkips += sess.HeldSkips
		}
		return heldSkips > 0 || leaf.Stats().Stale > 0
	}, "stale re-export neutralized (held-skip or origin-guard drop)")
	if e, _ := leaf.Get("root/obj"); e.Value != 30 {
		t.Fatalf("child regressed to %v after snapshot re-export; want 30", e.Value)
	}

	// Fresh origin progress still flows through the restarted relay.
	send(up2, 4, 40)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := leaf.Get("root/obj")
		return ok && e.Value == 40
	}, "post-restart updates reach the child")
}
