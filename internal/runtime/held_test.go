package runtime

import (
	"bytes"
	"fmt"
	"maps"
	"net"
	"sync"
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

// serveTCP serves a cache endpoint on a loopback port.
func serveTCP(t *testing.T) (transport.CacheEndpoint, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return transport.Serve(ln, 64), ln.Addr().String()
}

// dialTCP connects source id to a cache endpoint served at addr.
func dialTCP(t *testing.T, addr, id string) transport.SourceConn {
	t.Helper()
	conn, err := transport.Dial(addr, id)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// ackLog is a cache endpoint that counts the held acks sent to each source.
type ackLog struct {
	transport.CacheEndpoint
	mu   sync.Mutex
	acks map[string]int
}

func (l *ackLog) SendFeedback(sourceID string, fb wire.Feedback) error {
	l.mu.Lock()
	l.acks[sourceID] += len(fb.Held)
	l.mu.Unlock()
	return l.CacheEndpoint.SendFeedback(sourceID, fb)
}

func (l *ackLog) sent(sourceID string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acks[sourceID]
}

// heldKeys counts the objects a source's sessions hold an ack for.
func heldKeys(src *Source) int {
	src.mu.Lock()
	defer src.mu.Unlock()
	n := 0
	for _, ss := range src.sessions {
		for _, h := range ss.held {
			if h.epoch != 0 {
				n++
			}
		}
	}
	return n
}

// heldSkips sums a node's held skips over its peer sessions.
func heldSkips(n *Node) int {
	skips := 0
	for _, sess := range n.Stats().Peers.Sessions {
		skips += sess.HeldSkips
	}
	return skips
}

// TestReexportStoreAcksStaleDropsTCP: a relay restarted from a snapshot older
// than its leaf re-exports every object; the leaf drops each copy at intake
// and acks the version it holds. Those acks are the only ones it sends — the
// applies before the restart owed none — and they cancel the re-sync that
// follows: the origin re-sending its current values, as a redialed origin
// does, is held-skipped at the relay, not sent. The leaf applies nothing
// until the origin moves on, and then the new value flows.
func TestReexportStoreAcksStaleDropsTCP(t *testing.T) {
	const objects = 64
	leafEp, leafAddr := serveTCP(t)
	defer leafEp.Close()
	leaf := NewCache(CacheConfig{ID: "leaf", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafEp)
	defer leaf.Close()

	newRelay := func() (*Node, transport.CacheEndpoint, transport.SourceConn) {
		upEp, upAddr := serveTCP(t)
		relay, err := NewNode(NodeConfig{
			ID:            "relay-r",
			Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
			PeerBandwidth: 10000,
			Metric:        metric.ValueDeviation,
			Tick:          5 * time.Millisecond,
		}, upEp, []Destination{{CacheID: "leaf", Conn: dialTCP(t, leafAddr, "relay-r")}})
		if err != nil {
			t.Fatal(err)
		}
		return relay, upEp, dialTCP(t, upAddr, "root")
	}
	send := func(up transport.SourceConn, version uint64) {
		t.Helper()
		for i := range objects {
			if err := up.SendRefresh(wire.Refresh{
				SourceID: "root", ObjectID: fmt.Sprintf("root/o%02d", i),
				Value: float64(10 * version), Version: version, Epoch: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	at := func(get func(string) (Entry, bool), version uint64) func() bool {
		return func() bool {
			for i := range objects {
				if e, ok := get(fmt.Sprintf("root/o%02d", i)); !ok || e.Value != float64(10*version) {
					return false
				}
			}
			return true
		}
	}

	relay1, upEp1, up1 := newRelay()
	send(up1, 1)
	send(up1, 2)
	waitFor(t, 2*time.Second, at(relay1.Get, 2), "relay 1 at version 2")
	var snap bytes.Buffer
	if err := relay1.Cache().SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	send(up1, 3)
	waitFor(t, 2*time.Second, at(leaf.Get, 3), "leaf ahead of the snapshot")
	up1.Close()
	relay1.Close()
	upEp1.Close()

	before := leaf.Stats()
	relay2, upEp2, up2 := newRelay()
	defer upEp2.Close()
	defer relay2.Close()
	defer up2.Close()
	if err := relay2.Cache().LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	relay2.ReexportStore()
	waitFor(t, 2*time.Second, func() bool {
		return leaf.Stats().Stale-before.Stale+heldSkips(relay2) >= objects
	}, "every re-exported copy dropped at the leaf or skipped at the relay")
	reexportSkips := heldSkips(relay2)
	waitFor(t, 2*time.Second, func() bool { return heldKeys(relay2.Source()) == objects },
		"the leaf's acks, one per object, at the relay")

	send(up2, 3)
	waitFor(t, 2*time.Second, at(relay2.Get, 3), "relay 2 re-synced by the origin")
	waitFor(t, 2*time.Second, func() bool { return heldSkips(relay2)-reexportSkips >= objects },
		"the re-sync held-skipped for the leaf")
	t.Logf("held skips: %d during the re-export, %d in all; leaf stale drops %d",
		reexportSkips, heldSkips(relay2), leaf.Stats().Stale-before.Stale)
	if applied := leaf.Stats().Refreshes - before.Refreshes; applied != 0 {
		t.Fatalf("leaf applied %d refreshes from the restarted relay before the origin moved on, want none", applied)
	}
	if !at(leaf.Get, 3)() {
		t.Fatal("leaf regressed below version 3")
	}

	send(up2, 4)
	waitFor(t, 2*time.Second, at(leaf.Get, 4), "post-restart updates reach the leaf")
}

// TestDiamondAcksOnlyDropsTCP: an origin feeds two relays, and both feed one
// leaf. The leaf converges to the origin's values, applying one relay's copy
// of each version and dropping the other's on the origin axis. Each relay is
// sent acks only for copies the leaf dropped from it: at most one per drop.
func TestDiamondAcksOnlyDropsTCP(t *testing.T) {
	const objects, rounds = 16, 5
	relays := []string{"relay-a", "relay-b"}
	var mu sync.Mutex
	applied := map[string]int{}
	ep, leafAddr := serveTCP(t)
	defer ep.Close()
	log := &ackLog{CacheEndpoint: ep, acks: map[string]int{}}
	leaf := NewCache(CacheConfig{
		ID: "leaf", Bandwidth: 10000, Tick: 5 * time.Millisecond,
		OnApply: func(rs []wire.Refresh) {
			mu.Lock()
			for i := range rs {
				applied[rs[i].SourceID]++
			}
			mu.Unlock()
		},
	}, log)
	defer leaf.Close()

	nodes := make([]*Node, len(relays))
	dests := make([]Destination, len(relays))
	for i, id := range relays {
		upEp, upAddr := serveTCP(t)
		defer upEp.Close()
		relay, err := NewNode(NodeConfig{
			ID:            id,
			Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
			PeerBandwidth: 10000,
			Metric:        metric.ValueDeviation,
			Tick:          5 * time.Millisecond,
		}, upEp, []Destination{{CacheID: "leaf", Conn: dialTCP(t, leafAddr, id)}})
		if err != nil {
			t.Fatal(err)
		}
		defer relay.Close()
		nodes[i] = relay
		dests[i] = Destination{CacheID: id, Conn: dialTCP(t, upAddr, "root")}
	}
	origin, err := NewFanoutSource(SourceConfig{
		ID: "root", Metric: metric.ValueDeviation, Bandwidth: 10000, Tick: 5 * time.Millisecond,
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	for round := 1; round <= rounds; round++ {
		for k := range objects {
			origin.Update(fmt.Sprintf("root/o%02d", k), float64(round*100+k))
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitFor(t, 5*time.Second, func() bool {
		for k := range objects {
			if e, ok := leaf.Get(fmt.Sprintf("root/o%02d", k)); !ok || e.Value != float64(rounds*100+k) {
				return false
			}
		}
		return true
	}, "leaf at the origin's final values through both relays")

	// Every copy either relay sent has reached the leaf and every apply its
	// hook, and every ack the leaf owes has been drained.
	sent := func(n *Node) int { return n.Stats().Peers.Sessions[0].Refreshes }
	appliedBy := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(applied)
	}
	waitFor(t, 5*time.Second, func() bool {
		st, by := leaf.Stats(), appliedBy()
		if st.Refreshes+st.Stale != sent(nodes[0])+sent(nodes[1]) || st.Refreshes != by[relays[0]]+by[relays[1]] {
			return false
		}
		leaf.mu.RLock()
		defer leaf.mu.RUnlock()
		for _, a := range leaf.store.owed {
			if a.n != 0 {
				return false
			}
		}
		return true
	}, "every copy received and every ack drained")

	by, drops := appliedBy(), 0
	for i, id := range relays {
		dropped := sent(nodes[i]) - by[id]
		drops += dropped
		t.Logf("%s: sent %d, applied %d, dropped %d, acked %d, held skips %d",
			id, sent(nodes[i]), by[id], dropped, log.sent(id), heldSkips(nodes[i]))
		if acks := log.sent(id); acks > dropped {
			t.Errorf("%s was sent %d acks for %d dropped copies, want at most one per drop", id, acks, dropped)
		}
	}
	if drops == 0 {
		t.Fatal("no copy dropped at the leaf: the diamond delivered each version once")
	}
	if log.sent(relays[0])+log.sent(relays[1]) == 0 {
		t.Errorf("%d copies dropped at the leaf and no ack sent", drops)
	}
}
