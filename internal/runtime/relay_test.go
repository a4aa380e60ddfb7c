package runtime

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// TestRelayThreeTierLocal is the hierarchy smoke test on the in-process
// transport: source → relay → 2 leaves. Updates applied at the relay are
// re-exported and must converge on every leaf, with provenance (origin
// source, hop count) recorded on the leaf copies.
func TestRelayThreeTierLocal(t *testing.T) {
	const leaves = 2
	leafNets := make([]*transport.Local, leaves)
	leafCaches := make([]*Cache, leaves)
	children := make([]Destination, leaves)
	for i := 0; i < leaves; i++ {
		leafNets[i] = transport.NewLocal(64)
		leafCaches[i] = NewCache(CacheConfig{
			ID: fmt.Sprintf("leaf-%d", i), Bandwidth: 10000,
			Tick: 5 * time.Millisecond,
		}, leafNets[i])
		defer leafCaches[i].Close()
		conn, err := leafNets[i].Dial("relay-1")
		if err != nil {
			t.Fatal(err)
		}
		children[i] = Destination{CacheID: fmt.Sprintf("leaf-%d", i), Conn: conn}
	}

	upNet := transport.NewLocal(64)
	relay, err := NewNode(NodeConfig{
		ID:            "relay-1",
		Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 10000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
	}, upNet, children)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	upConn, err := upNet.Dial("root-src")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "root-src", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
	}, []Destination{{CacheID: "relay-1", Conn: upConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	src.Update("root-src/temp", 21.5)
	src.Update("root-src/humidity", 0.4)
	src.Update("root-src/temp", 22.0)

	// The relay tier converges first...
	waitFor(t, 2*time.Second, func() bool {
		e, ok := relay.Get("root-src/temp")
		return ok && e.Value == 22.0
	}, "relay to apply the final temp")
	// ...and every leaf converges through it.
	for i := 0; i < leaves; i++ {
		i := i
		waitFor(t, 2*time.Second, func() bool {
			e, ok := leafCaches[i].Get("root-src/temp")
			return ok && e.Value == 22.0
		}, fmt.Sprintf("leaf %d temp via relay", i))
		waitFor(t, 2*time.Second, func() bool {
			e, ok := leafCaches[i].Get("root-src/humidity")
			return ok && e.Value == 0.4
		}, fmt.Sprintf("leaf %d humidity via relay", i))
	}

	// Provenance: the relay's copy came one hop from the origin source; the
	// leaf copies came from the relay but kept the origin and crossed one
	// relay tier.
	if e, _ := relay.Get("root-src/temp"); e.Source != "root-src" || e.Origin != "" || e.Hops != 0 {
		t.Errorf("relay entry provenance = source %q origin %q hops %d, want root-src/(empty)/0",
			e.Source, e.Origin, e.Hops)
	}
	for i := 0; i < leaves; i++ {
		e, _ := leafCaches[i].Get("root-src/temp")
		if e.Source != "relay-1" || e.Origin != "root-src" || e.Hops != 1 {
			t.Errorf("leaf %d entry provenance = source %q origin %q hops %d, want relay-1/root-src/1",
				i, e.Source, e.Origin, e.Hops)
		}
	}

	st := relay.Stats()
	if st.Forwarded < 2 {
		t.Errorf("relay forwarded %d refreshes, want ≥ 2", st.Forwarded)
	}
	if st.Looped != 0 || st.HopLimited != 0 {
		t.Errorf("unexpected drops: looped=%d hopLimited=%d", st.Looped, st.HopLimited)
	}
	if st.Intake.Refreshes < 2 {
		t.Errorf("relay upstream applied %d refreshes, want ≥ 2", st.Intake.Refreshes)
	}
	if len(st.Peers.Sessions) != leaves {
		t.Fatalf("relay runs %d child sessions, want %d", len(st.Peers.Sessions), leaves)
	}
	for i, sess := range st.Peers.Sessions {
		if sess.Refreshes < 2 {
			t.Errorf("child session %d sent %d refreshes, want ≥ 2", i, sess.Refreshes)
		}
	}
}

// TestRelayThreeTierTCP is the full 3-tier chain over real TCP: a source
// dials the relay's listener, the relay dials two leaf listeners, and
// two-hop feedback (leaf → relay session, relay cache → source session)
// flows back up.
func TestRelayThreeTierTCP(t *testing.T) {
	const leaves = 2
	leafCaches := make([]*Cache, leaves)
	leafEps := make([]transport.CacheEndpoint, leaves)
	children := make([]Destination, leaves)
	for i := 0; i < leaves; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		leafEps[i] = transport.Serve(ln, 64)
		leafCaches[i] = NewCache(CacheConfig{
			ID: fmt.Sprintf("tcp-leaf-%d", i), Bandwidth: 10000,
			Tick: 5 * time.Millisecond,
		}, leafEps[i])
		conn, err := transport.Dial(ln.Addr().String(), "tcp-relay")
		if err != nil {
			t.Fatal(err)
		}
		children[i] = Destination{CacheID: fmt.Sprintf("tcp-leaf-%d", i), Conn: conn}
		defer func(i int) {
			leafCaches[i].Close()
			leafEps[i].Close()
		}(i)
	}

	upLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	upEp := transport.Serve(upLn, 64)
	defer upEp.Close()
	relay, err := NewNode(NodeConfig{
		ID:            "tcp-relay",
		Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 10000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
	}, upEp, children)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	srcConn, err := transport.Dial(upLn.Addr().String(), "tcp-root")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "tcp-root", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
	}, []Destination{{CacheID: "tcp-relay", Conn: srcConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	for round := 1; round <= 5; round++ {
		for k := 0; k < 4; k++ {
			src.Update(fmt.Sprintf("tcp-root/val-%d", k), float64(round*10+k))
		}
		time.Sleep(20 * time.Millisecond)
	}

	for i := 0; i < leaves; i++ {
		i := i
		waitFor(t, 5*time.Second, func() bool {
			for k := 0; k < 4; k++ {
				e, ok := leafCaches[i].Get(fmt.Sprintf("tcp-root/val-%d", k))
				if !ok || e.Value != float64(50+k) {
					return false
				}
			}
			return true
		}, fmt.Sprintf("leaf %d to hold all final values through the relay", i))
		if e, _ := leafCaches[i].Get("tcp-root/val-0"); e.Origin != "tcp-root" || e.Hops != 1 {
			t.Errorf("leaf %d provenance = origin %q hops %d, want tcp-root/1", i, e.Origin, e.Hops)
		}
	}

	// Feedback composes across tiers: well-provisioned leaves feed the
	// relay's child sessions, and the relay's surplus feeds the source.
	waitFor(t, 5*time.Second, func() bool {
		rst := relay.Stats()
		if rst.Peers.Feedbacks == 0 || rst.Intake.Feedbacks == 0 {
			return false
		}
		return src.Stats().Feedbacks > 0
	}, "feedback on both tiers")
	rst := relay.Stats()
	for i, sess := range rst.Peers.Sessions {
		if sess.RemoteID != fmt.Sprintf("tcp-leaf-%d", i) && sess.Feedbacks > 0 {
			t.Errorf("child session %d learned remote id %q, want tcp-leaf-%d", i, sess.RemoteID, i)
		}
	}
	if got := src.Stats().Sessions[0].RemoteID; got != "tcp-relay" {
		t.Errorf("source session learned remote id %q, want tcp-relay", got)
	}
}

// TestRelayLoopAvoidance: a refresh that crossed a topology cycle — the
// relay is its origin or already on its path vector — is rejected at
// intake: never applied (a cycled copy re-issued under the peer's newer
// epoch would capture the entry) and never re-exported.
func TestRelayLoopAvoidance(t *testing.T) {
	leafNet := transport.NewLocal(16)
	leaf := NewCache(CacheConfig{ID: "leaf", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafNet)
	defer leaf.Close()
	childConn, err := leafNet.Dial("relay-x")
	if err != nil {
		t.Fatal(err)
	}

	upNet := transport.NewLocal(16)
	relay, err := NewNode(NodeConfig{
		ID:            "relay-x",
		Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 10000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
	}, upNet, []Destination{{CacheID: "leaf", Conn: childConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	up, err := upNet.Dial("peer-relay")
	if err != nil {
		t.Fatal(err)
	}
	// A refresh that originated on relay-x and looped through a peer tier.
	looped := wire.Refresh{
		SourceID: "peer-relay", ObjectID: "relay-x/own-obj",
		Origin: "relay-x", Hops: 2, Value: 7, Version: 1, Epoch: 1,
	}
	if err := up.SendRefresh(looped); err != nil {
		t.Fatal(err)
	}
	// The realistic cycle case (A→B→A): the origin is the root source at
	// every hop, but relay-x already appears on the path vector — the Via
	// check, not the origin check, must catch it.
	if err := up.SendRefresh(wire.Refresh{
		SourceID: "peer-relay", ObjectID: "root/cycled-obj",
		Origin: "root", Hops: 2, Via: []string{"relay-x", "peer-relay"},
		Value: 5, Version: 1, Epoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// A normal refresh from the peer for contrast.
	if err := up.SendRefresh(wire.Refresh{
		SourceID: "peer-relay", ObjectID: "peer-relay/obj",
		Value: 3, Version: 1, Epoch: 1,
	}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 2*time.Second, func() bool {
		st := relay.Stats()
		return st.Looped == 2 && st.Forwarded == 1
	}, "loop rejects (origin + path) and normal forward to be counted")
	// Cycled refreshes are rejected before the store: applying one would
	// let the peer's re-issued epoch capture the entry.
	if _, ok := relay.Get("relay-x/own-obj"); ok {
		t.Error("origin-looped refresh was applied to the relay store")
	}
	if _, ok := relay.Get("root/cycled-obj"); ok {
		t.Error("path-cycled refresh was applied to the relay store")
	}
	if got := relay.Stats().Intake.Rejected; got != 2 {
		t.Errorf("upstream rejected = %d, want 2", got)
	}
	// Only the non-looped object ever reaches the leaf, carrying the
	// relay on its path vector.
	waitFor(t, 2*time.Second, func() bool {
		e, ok := leaf.Get("peer-relay/obj")
		return ok && e.Value == 3
	}, "non-looped object at the leaf")
	if e, _ := leaf.Get("peer-relay/obj"); len(e.Via) != 1 || e.Via[0] != "relay-x" {
		t.Errorf("leaf entry path = %v, want [relay-x]", e.Via)
	}
	if _, ok := leaf.Get("relay-x/own-obj"); ok {
		t.Error("origin-looped refresh was re-exported to the leaf")
	}
	if _, ok := leaf.Get("root/cycled-obj"); ok {
		t.Error("path-cycled refresh was re-exported to the leaf")
	}
}

// TestRelayCycleTerminates wires a genuine cycle — relay A and relay B are
// each other's children — and proves an update entering at A converges
// instead of circulating: B applies A's re-export and forwards it back,
// A rejects the returning copy via the path check, and A's store keeps the
// direct entry so later direct refreshes are not shadowed by B's re-issued
// epoch.
func TestRelayCycleTerminates(t *testing.T) {
	upA := transport.NewLocal(16)
	upB := transport.NewLocal(16)
	connAtoB, err := upB.Dial("relay-a") // A's child session → B's upstream
	if err != nil {
		t.Fatal(err)
	}
	connBtoA, err := upA.Dial("relay-b") // B's child session → A's upstream
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, up transport.CacheEndpoint, child transport.SourceConn, childID string) *Node {
		relay, err := NewNode(NodeConfig{
			ID:            id,
			Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
			PeerBandwidth: 10000,
			Metric:        metric.ValueDeviation,
			Tick:          5 * time.Millisecond,
		}, up, []Destination{{CacheID: childID, Conn: child}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { relay.Close() })
		return relay
	}
	relayA := mk("relay-a", upA, connAtoB, "relay-b")
	relayB := mk("relay-b", upB, connBtoA, "relay-a")

	src, err := upA.Dial("root")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SendRefresh(wire.Refresh{
		SourceID: "root", ObjectID: "root/x", Value: 11, Version: 1, Epoch: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// A applies and forwards to B; B applies and schedules the value back
	// toward A. Depending on timing, B either sends it (A rejects it at
	// intake: Looped) or has already learned A's identity from feedback
	// and suppresses the send entirely (split horizon) — both terminate
	// the cycle.
	waitFor(t, 2*time.Second, func() bool {
		a, b := relayA.Stats(), relayB.Stats()
		return a.Forwarded == 1 && b.Forwarded == 1
	}, "one forward per relay")
	waitFor(t, 2*time.Second, func() bool {
		e, ok := relayB.Get("root/x")
		return ok && e.Value == 11
	}, "relay B to hold the one-hop copy")
	if e, ok := relayA.Get("root/x"); !ok || e.Source != "root" || e.Hops != 0 {
		t.Errorf("relay A entry = %+v ok=%v, want the direct copy from root", e, ok)
	}
	if e, _ := relayB.Get("root/x"); e.Source != "relay-a" || e.Hops != 1 {
		t.Errorf("relay B entry = %+v, want the one-hop copy via relay-a", e)
	}

	// Once B has learned A's identity from feedback, split horizon stops
	// even the guaranteed-rejected sends: further updates circulate
	// exactly once and generate no new loop traffic at all.
	waitFor(t, 5*time.Second, func() bool {
		sess := relayB.Stats().Peers.Sessions
		return len(sess) == 1 && sess[0].RemoteID == "relay-a"
	}, "relay B to learn relay A's identity")
	loopedBefore := relayA.Stats().Looped
	// A later direct update must still land at A (its entry was never
	// captured by B's re-issued epoch) and propagate to B.
	if err := src.SendRefresh(wire.Refresh{
		SourceID: "root", ObjectID: "root/x", Value: 12, Version: 2, Epoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		a, _ := relayA.Get("root/x")
		b, _ := relayB.Get("root/x")
		return a.Value == 12 && b.Value == 12
	}, "the direct update to propagate around the cycle exactly once")
	time.Sleep(100 * time.Millisecond) // window for any (wrong) loop send
	if got := relayA.Stats().Looped; got != loopedBefore {
		t.Errorf("loop rejections grew %d → %d after split horizon engaged", loopedBefore, got)
	}
}

// TestRelayHopLimit: forwarding stops once a refresh has crossed MaxHops
// relay tiers — the flood-suppression backstop for deep or miswired
// topologies.
func TestRelayHopLimit(t *testing.T) {
	leafNet := transport.NewLocal(16)
	leaf := NewCache(CacheConfig{ID: "leaf", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafNet)
	defer leaf.Close()
	childConn, err := leafNet.Dial("relay-h")
	if err != nil {
		t.Fatal(err)
	}

	upNet := transport.NewLocal(16)
	relay, err := NewNode(NodeConfig{
		ID:            "relay-h",
		Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 10000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
		MaxHops:       2,
	}, upNet, []Destination{{CacheID: "leaf", Conn: childConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	up, err := upNet.Dial("upstream-relay")
	if err != nil {
		t.Fatal(err)
	}
	// Already crossed 2 tiers: forwarding would make it 3 > MaxHops.
	if err := up.SendRefresh(wire.Refresh{
		SourceID: "upstream-relay", ObjectID: "root/deep-obj",
		Origin: "root", Hops: 2, Value: 9, Version: 1, Epoch: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// One tier so far: forwarding makes it 2 = MaxHops, still allowed.
	if err := up.SendRefresh(wire.Refresh{
		SourceID: "upstream-relay", ObjectID: "root/shallow-obj",
		Origin: "root", Hops: 1, Value: 4, Version: 1, Epoch: 1,
	}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 2*time.Second, func() bool {
		st := relay.Stats()
		return st.HopLimited == 1 && st.Forwarded == 1
	}, "hop-limit drop and in-limit forward to be counted")
	waitFor(t, 2*time.Second, func() bool {
		e, ok := leaf.Get("root/shallow-obj")
		return ok && e.Value == 4 && e.Hops == 2 && e.Origin == "root"
	}, "in-limit object at the leaf with hops=2")
	if _, ok := leaf.Get("root/deep-obj"); ok {
		t.Error("hop-limited refresh was re-exported to the leaf")
	}
	if e, ok := relay.Get("root/deep-obj"); !ok || e.Value != 9 {
		t.Errorf("hop-limited refresh must still be applied locally: %+v ok=%v", e, ok)
	}
}

// TestRelayReexportStore: snapshot loading bypasses the apply hook, so a
// relay restarted from a snapshot must explicitly re-seed its children —
// ReexportStore pushes every restored entry through the normal re-export
// path, guards included.
func TestRelayReexportStore(t *testing.T) {
	newRelayWithLeaf := func(id string) (*Node, *Cache, transport.SourceConn) {
		leafNet := transport.NewLocal(16)
		leaf := NewCache(CacheConfig{ID: id + "-leaf", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafNet)
		t.Cleanup(func() { leaf.Close() })
		childConn, err := leafNet.Dial(id)
		if err != nil {
			t.Fatal(err)
		}
		upNet := transport.NewLocal(16)
		relay, err := NewNode(NodeConfig{
			ID:            id,
			Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
			PeerBandwidth: 10000,
			Metric:        metric.ValueDeviation,
			Tick:          5 * time.Millisecond,
		}, upNet, []Destination{{CacheID: id + "-leaf", Conn: childConn}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { relay.Close() })
		up, err := upNet.Dial("root")
		if err != nil {
			t.Fatal(err)
		}
		return relay, leaf, up
	}

	// Populate the first relay from upstream, snapshot its store.
	relay1, _, up1 := newRelayWithLeaf("gen1")
	for k := 0; k < 3; k++ {
		if err := up1.SendRefresh(wire.Refresh{
			SourceID: "root", ObjectID: fmt.Sprintf("root/obj-%d", k),
			Value: float64(10 + k), Version: 1, Epoch: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return relay1.Len() == 3 }, "relay 1 to apply the objects")
	var buf bytes.Buffer
	if err := relay1.Cache().SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh relay restores the snapshot: the store is populated but the
	// children know nothing until ReexportStore runs.
	relay2, leaf2, _ := newRelayWithLeaf("gen2")
	if err := relay2.Cache().LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if relay2.Len() != 3 {
		t.Fatalf("restored %d objects, want 3", relay2.Len())
	}
	if fwd := relay2.Stats().Forwarded; fwd != 0 {
		t.Fatalf("snapshot load alone forwarded %d refreshes, want 0", fwd)
	}
	relay2.ReexportStore()
	for k := 0; k < 3; k++ {
		k := k
		waitFor(t, 2*time.Second, func() bool {
			e, ok := leaf2.Get(fmt.Sprintf("root/obj-%d", k))
			return ok && e.Value == float64(10+k) && e.Origin == "root" && e.Hops == 1
		}, fmt.Sprintf("restored obj-%d at the new relay's leaf", k))
	}
	if st := relay2.Stats(); st.Forwarded != 3 {
		t.Errorf("re-exported %d restored objects, want 3", st.Forwarded)
	}
}

// TestRelaySuppressesReexportWithoutChildren: a relay whose children are
// all gone must stop paying the re-export path for every apply batch — and
// the first child to attach afterwards must still receive everything the
// suppressed batches carried (seeded from the store).
func TestRelaySuppressesReexportWithoutChildren(t *testing.T) {
	leafNet := transport.NewLocal(16)
	leaf := NewCache(CacheConfig{ID: "leaf-a", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafNet)
	defer leaf.Close()
	childConn, err := leafNet.Dial("relay-s")
	if err != nil {
		t.Fatal(err)
	}
	upNet := transport.NewLocal(16)
	relay, err := NewNode(NodeConfig{
		ID:            "relay-s",
		Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 10000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
	}, upNet, []Destination{{CacheID: "leaf-a", Conn: childConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	up, err := upNet.Dial("root")
	if err != nil {
		t.Fatal(err)
	}
	send := func(obj string, version uint64, value float64) {
		t.Helper()
		if err := up.SendRefresh(wire.Refresh{
			SourceID: "root", ObjectID: obj, Value: value, Version: version, Epoch: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}

	send("root/a", 1, 1)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := leaf.Get("root/a")
		return ok && e.Value == 1
	}, "baseline flow through the relay")
	if relay.Stats().SuppressedBatches != 0 {
		t.Fatal("suppression counted while a child was attached")
	}

	// Child leaves: subsequent applies must be suppressed, not forwarded.
	if err := relay.RemovePeer("leaf-a"); err != nil {
		t.Fatal(err)
	}
	forwardedBefore := relay.Stats().Forwarded
	send("root/a", 2, 2)
	send("root/b", 1, 7)
	waitFor(t, 2*time.Second, func() bool {
		return relay.Stats().SuppressedBatches > 0
	}, "apply batches suppressed with no children")
	waitFor(t, 2*time.Second, func() bool {
		e, ok := relay.Get("root/b")
		return ok && e.Value == 7
	}, "relay store still applies while suppressing")
	if fwd := relay.Stats().Forwarded; fwd != forwardedBefore {
		t.Errorf("forwarded grew %d → %d with no children", forwardedBefore, fwd)
	}

	// A new child attaches: the suppressed window's state arrives anyway,
	// seeded from the relay store.
	leafNetB := transport.NewLocal(16)
	leafB := NewCache(CacheConfig{ID: "leaf-b", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafNetB)
	defer leafB.Close()
	connB, err := leafNetB.Dial("relay-s")
	if err != nil {
		t.Fatal(err)
	}
	if err := relay.AddPeer(Destination{CacheID: "leaf-b", Conn: connB}); err != nil {
		t.Fatal(err)
	}
	for obj, want := range map[string]float64{"root/a": 2, "root/b": 7} {
		obj, want := obj, want
		waitFor(t, 2*time.Second, func() bool {
			e, ok := leafB.Get(obj)
			return ok && e.Value == want
		}, "new child seeded with "+obj)
	}
}

// TestRelayConfigValidation: the node owns the intake cache's identity and
// hooks (NodeConfig.Intake.ID must stay zero), and a relay needs a child.
func TestRelayConfigValidation(t *testing.T) {
	upNet := transport.NewLocal(1)
	leafNet := transport.NewLocal(1)
	conn, err := leafNet.Dial("r")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := NewNode(NodeConfig{
		Intake: CacheConfig{ID: "already-set"},
	}, upNet, []Destination{{Conn: conn}}); err == nil {
		t.Error("NodeConfig with Intake.ID set was accepted")
	}
	if _, err := NewNode(NodeConfig{}, upNet, nil); err == nil {
		t.Error("relay with no children was accepted")
	}
}

// TestRunawayPeerGrowsEveryTier states the gap of ROADMAP item 6 as it stands:
// an origin that sprays fresh ids grows every tier below it by one record per
// id — at the relay an intake slot and index word, a peer-face object record
// and a scheduler record, at the leaf a slot — and nothing gives any of them
// back. No quota refuses a new id at intake and no path frees an index word, a
// slab slot or a scheduler record, so the counts below hold after the origin
// has gone, for as long as the nodes run. Item 6's second slice (one admission
// rule at intake) is what changes them.
func TestRunawayPeerGrowsEveryTier(t *testing.T) {
	const sprayed = 4096
	leafNet := transport.NewLocal(64)
	leaf := NewCache(CacheConfig{ID: "leaf", Bandwidth: 1e6, Tick: 5 * time.Millisecond}, leafNet)
	defer leaf.Close()
	down, err := leafNet.Dial("relay")
	if err != nil {
		t.Fatal(err)
	}
	upNet := transport.NewLocal(64)
	relay, err := NewNode(NodeConfig{
		ID:            "relay",
		Intake:        CacheConfig{Bandwidth: 1e6, Tick: 5 * time.Millisecond},
		PeerBandwidth: 1e6,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
	}, upNet, []Destination{{CacheID: "leaf", Conn: down}})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	up, err := upNet.Dial("origin")
	if err != nil {
		t.Fatal(err)
	}
	origin, err := NewFanoutSource(SourceConfig{
		ID: "origin", Metric: metric.ValueDeviation, Bandwidth: 1e6, Tick: 5 * time.Millisecond,
	}, []Destination{{CacheID: "relay", Conn: up}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sprayed {
		origin.Update(fmt.Sprintf("spray-%05d", i), 1)
	}
	waitFor(t, 10*time.Second, func() bool { return leaf.Len() == sprayed }, "the leaf to hold every sprayed id")
	origin.Close()

	// records reports a Source's object records, index words and scheduler
	// records (summed over its groups).
	records := func(s *Source) (objects, words, sched int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, g := range s.groups {
			sched += g.objs.n
		}
		return s.order.n, s.objs.n, sched
	}
	for _, tier := range []struct {
		name string
		src  *Source
	}{{"origin", origin}, {"relay peer face", relay.src}} {
		if o, w, sc := records(tier.src); o != sprayed || w != sprayed || sc != sprayed {
			t.Errorf("%s holds %d objects, %d index words and %d scheduler records, want %d of each",
				tier.name, o, w, sc, sprayed)
		}
	}
	relay.cache.mu.RLock()
	words := relay.cache.store.index.n
	relay.cache.mu.RUnlock()
	if n := relay.cache.Len(); n != sprayed || words != sprayed {
		t.Errorf("relay intake holds %d slots and %d index words, want %d of each", n, words, sprayed)
	}
	if n := leaf.Len(); n != sprayed {
		t.Errorf("leaf holds %d slots, want %d", n, sprayed)
	}
}
