package runtime

import (
	"fmt"
	"net"
	"testing"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// pinnedParams returns a threshold configuration frozen at th: α = ω = 1
// means neither sends nor feedback ever move it, so tests can reason about
// exactly which deviations cross a tier.
func pinnedParams(th float64) core.Params {
	return core.Params{Alpha: 1, Omega: 1, InitialThreshold: th, DisableBeta: true}
}

// quietly waits long enough for a few flusher ticks of 5 ms to have passed.
func quietly() { time.Sleep(50 * time.Millisecond) }

// TestSourceSuppressWithinThreshold: what the receiver sees of updates
// within the threshold. Below-threshold jitter reaches no cache, however many
// passes run, and a later over-threshold value does.
func TestSourceSuppressWithinThreshold(t *testing.T) {
	local := transport.NewLocal(64)
	cache := NewCache(CacheConfig{ID: "c1", Bandwidth: 4000, Tick: 5 * time.Millisecond}, local)
	defer cache.Close()
	conn, err := local.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation,
		Bandwidth: 4000, Tick: 5 * time.Millisecond,
		Params: pinnedParams(5),
	}, []Destination{{CacheID: "c1", Conn: conn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// The area priority of an object is the area ABOVE its divergence
	// curve: a value that appears at time t and then holds still carries a
	// frozen priority of value·t. Waiting before the first update makes
	// that area clear the pinned threshold deterministically, anchoring
	// the sent-state the jitter is measured against.
	time.Sleep(200 * time.Millisecond)
	src.Update("s1/x", 100)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := cache.Get("s1/x")
		return ok && e.Value == 100
	}, "initial value to reach the cache")

	// Sub-threshold jitter: every wiggle stays within 0.25 of the sent
	// value against a threshold pinned at 5.
	for i := 0; i < 20; i++ {
		src.Update("s1/x", 100+0.25*float64(1-2*(i%2)))
		time.Sleep(5 * time.Millisecond)
	}
	quietly()
	if st := src.Stats(); st.Sessions[0].Refreshes > 2 {
		t.Errorf("sub-threshold jitter was sent: session refreshes = %d, want ≤ 2", st.Sessions[0].Refreshes)
	}
	if e, _ := cache.Get("s1/x"); e.Value != 100 {
		t.Errorf("the cache saw sub-threshold jitter: value = %v, want 100", e.Value)
	}

	// An over-threshold jump must go out: the ≥100 ms wiggle window spent
	// near the sent value prices the jump's area at ≥100·0.1 = 10, past the
	// pinned 5.
	src.Update("s1/x", 200)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := cache.Get("s1/x")
		return ok && e.Value == 200
	}, "over-threshold jump to propagate")
}

// TestRelayThresholdSuppressed: what a relay's child sees of re-exports
// within the relay tier's (frozen) threshold. The jitter reaches the relay,
// which the origin forwards everything to, but not the child, which keeps the
// last over-threshold value until a later one crosses both tiers.
func TestRelayThresholdSuppressed(t *testing.T) {
	childNet := transport.NewLocal(64)
	child := NewCache(CacheConfig{ID: "leaf", Bandwidth: 4000, Tick: 5 * time.Millisecond}, childNet)
	defer child.Close()
	childConn, err := childNet.Dial("relay-1")
	if err != nil {
		t.Fatal(err)
	}
	upNet := transport.NewLocal(64)
	relay, err := NewNode(NodeConfig{
		ID:     "relay-1",
		Intake: CacheConfig{Bandwidth: 4000, Tick: 5 * time.Millisecond},
		Metric: metric.ValueDeviation,
		Tick:   5 * time.Millisecond,
		Params: pinnedParams(5),
	}, upNet, []Destination{{CacheID: "leaf", Conn: childConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	upConn, err := upNet.Dial("origin")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "origin", Metric: metric.ValueDeviation,
		Bandwidth: 4000, Tick: 5 * time.Millisecond,
		Params: pinnedParams(1e-6), // the origin forwards everything
	}, []Destination{{CacheID: "relay-1", Conn: upConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// Hold before the first update so its area priority (value·elapsed)
	// clears the relay tier's pinned threshold — a flat divergence curve
	// accrues nothing after the step.
	time.Sleep(200 * time.Millisecond)
	src.Update("origin/x", 50)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := child.Get("origin/x")
		return ok && e.Value == 50
	}, "initial value to reach the leaf")

	// Jitter within the child threshold reaches the relay (the origin's
	// threshold is ~zero) but must not fan out to the child session.
	for i := 0; i < 20; i++ {
		src.Update("origin/x", 50+0.25*float64(1-2*(i%2)))
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, 2*time.Second, func() bool {
		e, ok := relay.Get("origin/x")
		return ok && e.Value != 50
	}, "jitter to reach the relay")
	quietly()
	if e, _ := child.Get("origin/x"); e.Value != 50 {
		t.Errorf("leaf saw sub-threshold jitter: value = %v, want 50", e.Value)
	}

	src.Update("origin/x", 200)
	waitFor(t, 2*time.Second, func() bool {
		e, ok := child.Get("origin/x")
		return ok && e.Value == 200
	}, "over-threshold jump to traverse both tiers")
}

// TestMeshMutualPeersNoRecirculation is the two-node mesh acceptance test:
// A and B are mutual peers (each dials the other), the origin feeds only A.
// Every update must reach B exactly one hop laterally, and no copy may
// circulate more than once — B's echo of A's re-export is rejected at A's
// intake by the path-vector guard (or never sent at all once split horizon
// learns the peer identity), so every entry in the mesh has a path no
// longer than one hop.
func TestMeshMutualPeersNoRecirculation(t *testing.T) {
	epA := transport.NewLocal(64)
	epB := transport.NewLocal(64)

	connAtoB, err := epB.Dial("A")
	if err != nil {
		t.Fatal(err)
	}
	nodeA, err := NewNode(NodeConfig{
		ID:            "A",
		Intake:        CacheConfig{Bandwidth: 4000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 4000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
		Params:        pinnedParams(1e-6),
	}, epA, []Destination{{CacheID: "B", Conn: connAtoB}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	connBtoA, err := epA.Dial("B")
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := NewNode(NodeConfig{
		ID:            "B",
		Intake:        CacheConfig{Bandwidth: 4000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 4000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
		Params:        pinnedParams(1e-6),
	}, epB, []Destination{{CacheID: "A", Conn: connBtoA}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	originConn, err := epA.Dial("origin")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "origin", Metric: metric.ValueDeviation,
		Bandwidth: 4000, Tick: 5 * time.Millisecond,
		Params: pinnedParams(1e-6),
	}, []Destination{{CacheID: "A", Conn: originConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	const objects = 5
	for i := 0; i < objects; i++ {
		src.Update(fmt.Sprintf("origin/obj-%d", i), float64(10*(i+1)))
	}
	for i := 0; i < objects; i++ {
		id, want := fmt.Sprintf("origin/obj-%d", i), float64(10*(i+1))
		waitFor(t, 3*time.Second, func() bool {
			e, ok := nodeB.Get(id)
			return ok && e.Value == want
		}, fmt.Sprintf("%s to reach B laterally", id))
	}

	// B's copies came exactly one hop through A; A's came straight from
	// the origin. A longer Via anywhere would mean a copy went around the
	// A↔B cycle.
	for i := 0; i < objects; i++ {
		id := fmt.Sprintf("origin/obj-%d", i)
		if e, _ := nodeB.Get(id); e.Source != "A" || e.Origin != "origin" || e.Hops != 1 ||
			len(e.Via) != 1 || e.Via[0] != "A" {
			t.Errorf("B entry %s provenance = source %q origin %q hops %d via %v, want A/origin/1/[A]",
				id, e.Source, e.Origin, e.Hops, e.Via)
		}
		if e, _ := nodeA.Get(id); e.Source != "origin" || e.Origin != "" || len(e.Via) != 0 {
			t.Errorf("A entry %s provenance = source %q origin %q via %v, want direct origin copy",
				id, e.Source, e.Origin, e.Via)
		}
	}

	// Every echo B actually sent back to A was rejected at A's intake —
	// the cycle is cut after one lateral hop. (Split horizon usually stops
	// the echoes from being sent at all; both counters then read zero.)
	waitFor(t, 2*time.Second, func() bool {
		return nodeA.Stats().Looped == nodeB.Stats().Peers.Refreshes
	}, "every echo from B to be rejected at A")
	ast, bst := nodeA.Stats(), nodeB.Stats()
	if ast.Intake.Rejected != ast.Looped {
		t.Errorf("A rejected=%d looped=%d, want the counters mirrored", ast.Intake.Rejected, ast.Looped)
	}
	if ast.Intake.PeerServed != 0 {
		t.Errorf("A peer-served = %d, want 0 (all its copies are direct)", ast.Intake.PeerServed)
	}
	if bst.Intake.PeerServed < objects {
		t.Errorf("B peer-served = %d, want ≥ %d (every object arrived laterally)", bst.Intake.PeerServed, objects)
	}
	if bst.Looped != 0 {
		t.Errorf("B looped = %d, want 0 (nothing should ever come back around to B)", bst.Looped)
	}
}

// TestLateralPollServing covers the cache-driven half of the peer face: a
// polling cache attached to a node is served the node's RELAYED copies —
// provenance intact — straight from the lateral store, and once the cache
// advertises what it already holds (wire.Poll.Known) the node stops
// re-sending fresh items (SessionStats.PollOmits).
func TestLateralPollServing(t *testing.T) {
	transport.SetDialCapabilities(wire.CapPeer)
	defer transport.SetDialCapabilities(0)

	// Polling cache C, whose only "source" is node A's peer face.
	epC := transport.NewLocal(64)
	pollCache := NewCache(CacheConfig{
		ID: "C", Bandwidth: 4000, Tick: 5 * time.Millisecond,
		Policy: PolicyIdeal,
		Poll: PollConfig{
			ReSolveEvery: 150 * time.Millisecond,
			Seed:         1,
			TrueRate:     func(string) float64 { return 5 },
		},
	}, epC)
	defer pollCache.Close()

	connAtoC, err := epC.Dial("A")
	if err != nil {
		t.Fatal(err)
	}
	epA := transport.NewLocal(64)
	nodeA, err := NewNode(NodeConfig{
		ID:            "A",
		Intake:        CacheConfig{Bandwidth: 4000, Tick: 5 * time.Millisecond},
		PeerBandwidth: 4000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
		PeerPolicy:    PolicyIdeal, // pure poll face: lateral serving only
	}, epA, []Destination{{CacheID: "C", Conn: connAtoC}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	originConn, err := epA.Dial("origin")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "origin", Metric: metric.ValueDeviation,
		Bandwidth: 4000, Tick: 5 * time.Millisecond,
		Params: pinnedParams(1e-6),
	}, []Destination{{CacheID: "A", Conn: originConn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	src.Update("origin/x", 7)
	src.Update("origin/y", 9)

	// C discovers and installs A's relayed copies through polls, with the
	// origin-axis provenance stamped on the reply items: the poll-served
	// copy is attributable exactly like a pushed one.
	for _, tc := range []struct {
		id   string
		want float64
	}{{"origin/x", 7}, {"origin/y", 9}} {
		waitFor(t, 3*time.Second, func() bool {
			e, ok := pollCache.Get(tc.id)
			return ok && e.Value == tc.want
		}, tc.id+" to be poll-served laterally")
		e, _ := pollCache.Get(tc.id)
		if e.Source != "A" || e.Origin != "origin" || e.Hops != 1 || len(e.Via) != 1 || e.Via[0] != "A" {
			t.Errorf("%s provenance = source %q origin %q hops %d via %v, want A/origin/1/[A]",
				tc.id, e.Source, e.Origin, e.Hops, e.Via)
		}
	}
	if st := pollCache.Stats(); st.PeerServed < 2 {
		t.Errorf("poll cache peer-served = %d, want ≥ 2 (both copies arrived through an intermediary)", st.PeerServed)
	}

	// With the values unchanged, C's subsequent polls carry known-version
	// hints and A omits the fresh items from its replies.
	waitFor(t, 3*time.Second, func() bool {
		return nodeA.Stats().Peers.PollOmits > 0
	}, "known-version hints to suppress redundant reply items")
}

// deepChainEndpoint abstracts the transport for the deep-chain test.
type deepChainEndpoint struct {
	ep      transport.CacheEndpoint
	dial    func(srcID string) transport.SourceConn
	cleanup func()
}

func newDeepChainEndpoint(t *testing.T, tcp bool) deepChainEndpoint {
	t.Helper()
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ep := transport.Serve(ln, 64)
		addr := ln.Addr().String()
		return deepChainEndpoint{
			ep: ep,
			dial: func(srcID string) transport.SourceConn {
				conn, err := transport.Dial(addr, srcID)
				if err != nil {
					t.Fatal(err)
				}
				return conn
			},
			cleanup: func() { ep.Close() },
		}
	}
	local := transport.NewLocal(64)
	return deepChainEndpoint{
		ep: local,
		dial: func(srcID string) transport.SourceConn {
			conn, err := local.Dial(srcID)
			if err != nil {
				t.Fatal(err)
			}
			return conn
		},
		cleanup: func() { local.Close() },
	}
}

// deepChain is origin → n1 → n2 → n3 → n4: three Node tiers re-exporting
// down a chain, a plain cache as the final tier.
type deepChain struct {
	src   *Source
	nodes []*Node // n1, n2, n3
	tail  *Cache  // n4
}

func buildDeepChain(t *testing.T, tcp bool, maxHops int, tierThreshold float64) (*deepChain, func()) {
	t.Helper()
	var cleanups []func()
	eps := make([]deepChainEndpoint, 4)
	for i := range eps {
		eps[i] = newDeepChainEndpoint(t, tcp)
		cleanups = append(cleanups, eps[i].cleanup)
	}
	tail := NewCache(CacheConfig{ID: "n4", Bandwidth: 4000, Tick: 5 * time.Millisecond}, eps[3].ep)
	cleanups = append(cleanups, func() { tail.Close() })

	nodes := make([]*Node, 3)
	for i := 2; i >= 0; i-- { // n3 first: each tier dials the one below
		id := fmt.Sprintf("n%d", i+1)
		downID := fmt.Sprintf("n%d", i+2)
		peer := Destination{CacheID: downID, Conn: eps[i+1].dial(id)}
		node, err := NewNode(NodeConfig{
			ID:            id,
			Intake:        CacheConfig{Bandwidth: 4000, Tick: 5 * time.Millisecond},
			PeerBandwidth: 4000,
			Metric:        metric.ValueDeviation,
			Tick:          5 * time.Millisecond,
			Params:        pinnedParams(tierThreshold),
			MaxHops:       maxHops,
		}, eps[i].ep, []Destination{peer})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		cleanups = append(cleanups, func() { node.Close() })
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "origin", Metric: metric.ValueDeviation,
		Bandwidth: 4000, Tick: 5 * time.Millisecond,
		Params: pinnedParams(1e-6), // the origin itself filters nothing
	}, []Destination{{CacheID: "n1", Conn: eps[0].dial("origin")}})
	if err != nil {
		t.Fatal(err)
	}
	cleanups = append(cleanups, func() { src.Close() })
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	return &deepChain{src: src, nodes: nodes, tail: tail}, cleanup
}

// TestDeepChainThresholdsAndHops runs the >3-tier chain on both transports
// and pins the two depth limits: per-tier thresholds stop sub-threshold
// jitter mid-chain (the composition of §8 across tiers), and MaxHops stops
// re-export at the configured depth even for over-threshold values.
func TestDeepChainThresholdsAndHops(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "local"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			t.Run("thresholds-bind", func(t *testing.T) {
				chain, cleanup := buildDeepChain(t, tcp, 0 /* default MaxHops */, 5)
				defer cleanup()

				// Hold before the first update: each tier's session prices
				// the arriving step at value·(apply time since that tier
				// started), so the pause puts it past every pinned 5.
				time.Sleep(250 * time.Millisecond)
				chain.src.Update("origin/x", 100)
				waitFor(t, 5*time.Second, func() bool {
					e, ok := chain.tail.Get("origin/x")
					return ok && e.Value == 100
				}, "initial value to traverse all four tiers")
				if e, _ := chain.tail.Get("origin/x"); e.Origin != "origin" || e.Hops != 3 ||
					len(e.Via) != 3 || e.Via[0] != "n1" || e.Via[1] != "n2" || e.Via[2] != "n3" {
					t.Errorf("tier-4 provenance = origin %q hops %d via %v, want origin/3/[n1 n2 n3]",
						e.Origin, e.Hops, e.Via)
				}

				// Jitter within each tier's frozen threshold: n1 keeps
				// applying it (the origin forwards everything), but it is
				// within the n1→n2 threshold, so nothing moves past n1.
				for i := 0; i < 20; i++ {
					chain.src.Update("origin/x", 100+0.25*float64(1-2*(i%2)))
					time.Sleep(5 * time.Millisecond)
				}
				waitFor(t, 3*time.Second, func() bool {
					e, ok := chain.nodes[0].Get("origin/x")
					return ok && e.Value != 100
				}, "jitter to reach tier 2")
				quietly()
				for i, get := range []func(string) (Entry, bool){chain.nodes[1].Get, chain.nodes[2].Get, chain.tail.Get} {
					if e, _ := get("origin/x"); e.Value != 100 {
						t.Errorf("n%d saw sub-threshold jitter: value = %v, want 100", i+2, e.Value)
					}
				}

				chain.src.Update("origin/x", 200)
				waitFor(t, 5*time.Second, func() bool {
					e, ok := chain.tail.Get("origin/x")
					return ok && e.Value == 200
				}, "over-threshold jump to traverse all four tiers")
			})

			t.Run("maxhops-bind", func(t *testing.T) {
				// MaxHops 2 lets a value cross two re-exports (reaching
				// n3) and stops the third: n3 applies but must not
				// forward, and n4 never hears of the object.
				chain, cleanup := buildDeepChain(t, tcp, 2, 1e-6)
				defer cleanup()

				chain.src.Update("origin/y", 42)
				waitFor(t, 5*time.Second, func() bool {
					e, ok := chain.nodes[2].Get("origin/y")
					return ok && e.Value == 42
				}, "value to reach tier 3 (two hops)")
				waitFor(t, 3*time.Second, func() bool {
					return chain.nodes[2].Stats().HopLimited >= 1
				}, "tier 3 to drop the re-export at the hop ceiling")
				time.Sleep(150 * time.Millisecond) // would-be delivery window
				if _, ok := chain.tail.Get("origin/y"); ok {
					t.Error("tier 4 received a value beyond MaxHops")
				}
			})
		})
	}
}
