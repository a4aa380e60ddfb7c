package runtime

import (
	"fmt"
	"net"
	stdruntime "runtime"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

func TestViaMemo(t *testing.T) {
	m := viaMemo{id: "relay"}
	p1 := m.path([]string{"a", "b"})
	p2 := m.path([]string{"a", "b"})
	if &p1[0] != &p2[0] {
		t.Error("identical Via paths did not share one backing array")
	}
	if len(p1) != 3 || p1[0] != "a" || p1[1] != "b" || p1[2] != "relay" {
		t.Errorf("path = %v, want [a b relay]", p1)
	}
	p3 := m.path(nil)
	if len(p3) != 1 || p3[0] != "relay" {
		t.Errorf("empty-Via path = %v, want [relay]", p3)
	}
	p4 := m.path([]string{"a"})
	if len(p4) != 2 || p4[1] != "relay" {
		t.Errorf("path = %v, want [a relay]", p4)
	}
	if got := m.path([]string{"a", "b"}); &got[0] != &p1[0] {
		t.Error("memo lost the first path after later inserts")
	}
}

// spliceTier is a 3-tier chain over real binary TCP: a root fan-out source
// dials a relay node whose peer face runs session-group delivery, and the
// relay dials two leaf caches. With splice enabled, the relay's re-exports
// ride the retained inbound frames.
type spliceTier struct {
	src    *Source
	node   *Node
	leaves []*Cache
}

func buildSpliceTier(t *testing.T, leaves int, splice bool) (*spliceTier, func()) {
	t.Helper()
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	fail := func(err error) {
		cleanup()
		t.Fatal(err)
	}

	tier := &spliceTier{leaves: make([]*Cache, leaves)}
	peers := make([]Destination, leaves)
	for i := 0; i < leaves; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		ep := transport.Serve(ln, 64)
		leaf := NewCache(CacheConfig{
			ID: fmt.Sprintf("leaf-%d", i), Bandwidth: 10000,
			Tick: 5 * time.Millisecond,
		}, ep)
		tier.leaves[i] = leaf
		cleanups = append(cleanups, func() { leaf.Close(); ep.Close() })
		conn, err := transport.Dial(ln.Addr().String(), "relay")
		if err != nil {
			fail(err)
		}
		peers[i] = Destination{CacheID: fmt.Sprintf("leaf-%d", i), Conn: conn}
	}

	upLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	upEp := transport.Serve(upLn, 64)
	cleanups = append(cleanups, func() { upEp.Close() })
	node, err := NewNode(NodeConfig{
		ID:            "relay",
		Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 10000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
		Params:        pinnedParams(1e-6),
		Group:         GroupConfig{Enabled: true},
		SpliceForward: splice,
	}, upEp, peers)
	if err != nil {
		fail(err)
	}
	tier.node = node
	cleanups = append(cleanups, func() { node.Close() })

	srcConn, err := transport.Dial(upLn.Addr().String(), "root")
	if err != nil {
		fail(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "root", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
		Params: pinnedParams(1e-6),
	}, []Destination{{CacheID: "relay", Conn: srcConn}})
	if err != nil {
		fail(err)
	}
	tier.src = src
	cleanups = append(cleanups, func() { src.Close() })
	return tier, cleanup
}

// runSpliceTier drives the same update schedule through a tier and waits for
// every leaf to hold the final values, returning each leaf's view.
func runSpliceTier(t *testing.T, tier *spliceTier, objects, rounds int) [][]Entry {
	t.Helper()
	for round := 1; round <= rounds; round++ {
		for k := 0; k < objects; k++ {
			tier.src.Update(fmt.Sprintf("root/obj-%d", k), float64(round*100+k))
		}
		time.Sleep(30 * time.Millisecond)
	}
	views := make([][]Entry, len(tier.leaves))
	for i, leaf := range tier.leaves {
		i, leaf := i, leaf
		waitFor(t, 5*time.Second, func() bool {
			for k := 0; k < objects; k++ {
				e, ok := leaf.Get(fmt.Sprintf("root/obj-%d", k))
				if !ok || e.Value != float64(rounds*100+k) {
					return false
				}
			}
			return true
		}, fmt.Sprintf("leaf %d to hold all final values", i))
		views[i] = make([]Entry, objects)
		for k := 0; k < objects; k++ {
			views[i][k], _ = leaf.Get(fmt.Sprintf("root/obj-%d", k))
		}
	}
	return views
}

// TestSpliceForwardEndToEnd proves the zero-copy relay path delivers: with
// splice enabled on a binary-TCP 3-tier chain, leaves converge to the
// root's values with full relay provenance, the relay actually splices
// (stats prove the fast path ran, not a silent fallback), and the group's
// frame refcounting quiesces to zero.
func TestSpliceForwardEndToEnd(t *testing.T) {
	tier, cleanup := buildSpliceTier(t, 2, true)
	defer cleanup()

	views := runSpliceTier(t, tier, 4, 5)
	for i, view := range views {
		for k, e := range view {
			if e.Origin != "root" || e.Hops != 1 || len(e.Via) != 1 || e.Via[0] != "relay" {
				t.Errorf("leaf %d obj %d provenance = origin %q hops %d via %v, want root/1/[relay]",
					i, k, e.Origin, e.Hops, e.Via)
			}
			if e.OriginEpoch == 0 {
				t.Errorf("leaf %d obj %d lost the origin axis (OriginEpoch = 0)", i, k)
			}
			if e.Source != "relay" {
				t.Errorf("leaf %d obj %d sender = %q, want relay (the spliced per-hop stamp)", i, k, e.Source)
			}
		}
	}

	ns := tier.node.Stats()
	if ns.SplicedBatches == 0 || ns.SplicedRefreshes == 0 {
		t.Errorf("splice path never ran: SplicedBatches=%d SplicedRefreshes=%d (fallbacks=%d)",
			ns.SplicedBatches, ns.SplicedRefreshes, ns.SpliceFallbacks)
	}
	if ns.Peers.Group == nil {
		t.Fatal("peer face reports no session group")
	}
	if ns.Peers.Group.SplicedBatches != ns.SplicedBatches {
		t.Errorf("group SplicedBatches = %d, node reports %d",
			ns.Peers.Group.SplicedBatches, ns.SplicedBatches)
	}

	// Frame refcount quiescence: once deliveries drain, every spliced frame
	// must have been released (no leak, no double-release panic earlier).
	g := tier.node.src.group
	waitFor(t, 2*time.Second, func() bool {
		return g.framesLive.Load() == 0
	}, "spliced frames to be released at quiescence")
}

// TestSpliceMatchesFallback runs the identical schedule through a
// splice-enabled and a splice-disabled chain and compares every leaf's final
// state: values, provenance path, hop count and origin axis must be
// indistinguishable — the fast path is an optimization, never a semantic.
func TestSpliceMatchesFallback(t *testing.T) {
	spliced, cleanupA := buildSpliceTier(t, 2, true)
	defer cleanupA()
	classic, cleanupB := buildSpliceTier(t, 2, false)
	defer cleanupB()

	const objects, rounds = 4, 5
	va := runSpliceTier(t, spliced, objects, rounds)
	vb := runSpliceTier(t, classic, objects, rounds)

	if n := classic.node.Stats().SplicedBatches; n != 0 {
		t.Fatalf("control chain spliced %d batches with SpliceForward off", n)
	}
	for i := range va {
		for k := range va[i] {
			a, b := va[i][k], vb[i][k]
			if a.Value != b.Value || a.Origin != b.Origin || a.Hops != b.Hops ||
				len(a.Via) != len(b.Via) || a.Via[0] != b.Via[0] ||
				a.OriginVersion != b.OriginVersion || a.Source != b.Source {
				t.Errorf("leaf %d obj %d diverges: splice=%+v classic=%+v", i, k, a, b)
			}
		}
	}
}

// TestSpliceFallbackOnLocalTransport: the Local transport never retains
// frames, so a splice-enabled node over it must run the classic re-export
// path end to end — same delivery, zero spliced batches.
func TestSpliceFallbackOnLocalTransport(t *testing.T) {
	leafNet := transport.NewLocal(64)
	leaf := NewCache(CacheConfig{ID: "leaf", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafNet)
	defer leaf.Close()
	peerConn, err := leafNet.Dial("relay")
	if err != nil {
		t.Fatal(err)
	}

	upNet := transport.NewLocal(64)
	defer upNet.Close()
	node, err := NewNode(NodeConfig{
		ID:            "relay",
		Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 10000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
		Params:        pinnedParams(1e-6),
		Group:         GroupConfig{Enabled: true},
		SpliceForward: true,
	}, upNet, []Destination{{CacheID: "leaf", Conn: peerConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	srcConn, err := upNet.Dial("root")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "root", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
		Params: pinnedParams(1e-6),
	}, []Destination{{CacheID: "relay", Conn: srcConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	src.Update("root/x", 42)
	waitFor(t, 5*time.Second, func() bool {
		e, ok := leaf.Get("root/x")
		return ok && e.Value == 42
	}, "value to traverse the local-transport chain")

	ns := node.Stats()
	if ns.SplicedBatches != 0 || ns.SpliceFallbacks != 0 {
		t.Errorf("local transport produced framed batches: spliced=%d fallbacks=%d, want 0/0",
			ns.SplicedBatches, ns.SpliceFallbacks)
	}
	if ns.Forwarded == 0 {
		t.Error("classic re-export path did not forward")
	}
}

// TestSpliceRespectsThreshold: the splice gate consults the group's shared
// threshold exactly like the flush scheduler — a sub-threshold inbound
// refresh advances the relay's canonical state (polls and re-syncs see it)
// but is not broadcast, spliced or otherwise.
func TestSpliceRespectsThreshold(t *testing.T) {
	leafLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leafEp := transport.Serve(leafLn, 64)
	defer leafEp.Close()
	leaf := NewCache(CacheConfig{ID: "leaf-0", Bandwidth: 10000, Tick: 5 * time.Millisecond}, leafEp)
	defer leaf.Close()
	peerConn, err := transport.Dial(leafLn.Addr().String(), "relay")
	if err != nil {
		t.Fatal(err)
	}

	upLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	upEp := transport.Serve(upLn, 64)
	defer upEp.Close()
	node, err := NewNode(NodeConfig{
		ID:            "relay",
		Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 10000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
		Params:        pinnedParams(5), // relay tier filters moves < 5
		Group:         GroupConfig{Enabled: true},
		SpliceForward: true,
	}, upEp, []Destination{{CacheID: "leaf-0", Conn: peerConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	srcConn, err := transport.Dial(upLn.Addr().String(), "root")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "root", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
		Params: pinnedParams(1e-6), // the root filters nothing
	}, []Destination{{CacheID: "relay", Conn: srcConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	src.Update("root/x", 100)
	waitFor(t, 5*time.Second, func() bool {
		e, ok := leaf.Get("root/x")
		return ok && e.Value == 100
	}, "first value to broadcast (never-sent state)")

	// Sub-threshold jitter: applied by the relay, withheld from the leaf.
	src.Update("root/x", 101)
	waitFor(t, 5*time.Second, func() bool {
		e, ok := node.Get("root/x")
		return ok && e.Value == 101
	}, "relay to apply the jitter")
	time.Sleep(100 * time.Millisecond)
	if e, _ := leaf.Get("root/x"); e.Value != 100 {
		t.Errorf("sub-threshold jitter crossed the relay tier: leaf sees %v, want 100", e.Value)
	}

	// An over-threshold move broadcasts again — the withheld state did not
	// wedge the object.
	src.Update("root/x", 200)
	waitFor(t, 5*time.Second, func() bool {
		e, ok := leaf.Get("root/x")
		return ok && e.Value == 200
	}, "over-threshold move to broadcast")
}

// spliceFixture drives Source.forwardSpliced directly — the call
// Node.onForward makes — on a relay-shaped source whose group members are
// the given connections: one inbound batch from "root" over the same objects
// again and again, each round one origin version further.
type spliceFixture struct {
	src     *Source
	rs      []wire.Refresh
	keep    []bool
	via     []string
	held    []wire.HeldVersion
	version uint64
}

func newSpliceFixture(t *testing.T, conns ...transport.SourceConn) *spliceFixture {
	t.Helper()
	const objects = 32
	dests := make([]Destination, len(conns))
	for i, c := range conns {
		dests[i] = Destination{CacheID: fmt.Sprintf("leaf-%d", i), Conn: c}
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "relay", Metric: metric.ValueDeviation, Bandwidth: 1e9, Tick: time.Hour,
		Params: pinnedParams(1e-6),
		Group:  GroupConfig{Enabled: true},
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	f := &spliceFixture{src: src, keep: make([]bool, objects), via: []string{"relay"}}
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("root/o%02d", i)
		f.rs = append(f.rs, wire.Refresh{SourceID: "root", ObjectID: id, Epoch: 50})
		f.held = append(f.held, wire.HeldVersion{ObjectID: id, Epoch: 50})
	}
	return f
}

// forward re-exports the next version of every object and waits for the
// member sends to finish.
func (f *spliceFixture) forward(t *testing.T) {
	t.Helper()
	f.version++
	sc := spliceScratchPool.Get().(*spliceScratch)
	sc.grab("relay", len(f.rs))
	for i := range f.rs {
		f.rs[i].Version, f.rs[i].Value = f.version, float64(f.version)
		f.keep[i] = true
		sc.provs[i] = Provenance{Origin: "root", Hops: 1, Via: f.via, Epoch: 50, Version: f.version}
	}
	frame := codec.NewBatchFrame(f.rs, 1)
	scheduled, handled := f.src.forwardSpliced(f.rs, frame, f.keep, sc)
	frame.Release()
	spliceScratchPool.Put(sc)
	if !handled || scheduled != len(f.rs) {
		t.Fatalf("forwardSpliced scheduled %d of %d (handled=%v)", scheduled, len(f.rs), handled)
	}
	for _, ss := range f.src.sessions {
		for ss.inflight.Load() != 0 {
			stdruntime.Gosched()
		}
	}
}

// ackAll has every member acknowledge every object at the version just
// forwarded — what a leaf does for each relayed apply.
func (f *spliceFixture) ackAll() {
	for i := range f.held {
		f.held[i].Version = f.version
	}
	for _, ss := range f.src.sessions {
		ss.onFeedback(wire.Feedback{CacheID: ss.dest.CacheID, Held: f.held})
	}
}

// TestSpliceAtAxisAcksTakeSharedFrame: acks that sit AT the canonical origin
// axis — all a healthy child ever sends — exclude nothing, so every member
// keeps taking the one spliced frame; an ack AHEAD of the axis excludes that
// object for that member only.
func TestSpliceAtAxisAcksTakeSharedFrame(t *testing.T) {
	a, b := newFrameConn("leaf-0"), newFrameConn("leaf-1")
	f := newSpliceFixture(t, a, b)
	defer f.src.Close()
	const rounds = 5
	for r := 0; r < rounds; r++ {
		f.forward(t)
		f.ackAll()
	}
	st := f.src.Stats()
	if st.Group.Fallbacks != 0 || st.Group.SplicedBatches != rounds {
		t.Errorf("fallbacks=%d spliced batches=%d, want 0 and %d", st.Group.Fallbacks, st.Group.SplicedBatches, rounds)
	}
	for i, c := range []*frameConn{a, b} {
		if got := c.frameCount(); got != rounds {
			t.Errorf("member %d took %d shared frames, want %d", i, got, rounds)
		}
		if skips := st.Sessions[i].HeldSkips; skips != 0 {
			t.Errorf("member %d: %d held skips from at-the-axis acks", i, skips)
		}
	}
	f.src.mu.Lock()
	for i, ss := range f.src.sessions {
		recorded := 0
		for _, h := range ss.held {
			if h == (heldAxis{50, f.version}) {
				recorded++
			}
		}
		if recorded != len(f.rs) {
			t.Errorf("member %d holds %d of %d acks (they must survive for a detach→resync)", i, recorded, len(f.rs))
		}
	}
	f.src.mu.Unlock()

	// Member 0 runs ahead on one object: it alone gets a filtered copy.
	f.src.sessions[0].onFeedback(wire.Feedback{CacheID: "leaf-0", Held: []wire.HeldVersion{
		{ObjectID: f.rs[3].ObjectID, Epoch: 50, Version: f.version + 1},
	}})
	f.forward(t)
	st = f.src.Stats()
	if st.Group.Fallbacks != 1 || st.Sessions[0].HeldSkips != 1 || st.Sessions[1].HeldSkips != 0 {
		t.Errorf("fallbacks=%d held skips=%d/%d, want 1 and 1/0", st.Group.Fallbacks, st.Sessions[0].HeldSkips, st.Sessions[1].HeldSkips)
	}
	if got := a.frameCount(); got != rounds {
		t.Errorf("excluded member took the shared frame anyway (%d frames)", got)
	}
	if got := b.frameCount(); got != rounds+1 {
		t.Errorf("other member took %d shared frames, want %d", got, rounds+1)
	}
	last := a.sentMsgs()[len(a.sentMsgs())-(len(f.rs)-1):]
	for _, r := range last {
		if r.ObjectID == f.rs[3].ObjectID || r.Version != f.version || r.CacheID != "leaf-0" {
			t.Errorf("filtered copy carried %+v", r)
		}
	}
}
