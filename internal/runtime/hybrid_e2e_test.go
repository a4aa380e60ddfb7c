package runtime

import (
	"fmt"
	"net"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// fastMigration is the test-speed migration controller: a low promote
// threshold and short windows so the hot head crosses into the push set
// within a few hundred milliseconds.
var fastMigration = HybridConfig{
	Promote: 0.5, Demote: 0.05, Gain: 0.5, MigrateEvery: 100 * time.Millisecond,
}

// testHybridThreeTier runs the full hybrid hierarchy — one hybrid source,
// a hybrid relay tier (hybrid upstream cache face AND hybrid child face),
// two hybrid leaf caches — under a skewed workload with monotonically
// increasing values, kills the relay→leaf-0 connection mid-run, and then
// asserts that after the dust settles every leaf holds every object's final
// value: nothing lost to the regime split, nothing regressed by the redial,
// and migrations observable at both pushing tiers.
func testHybridThreeTier(t *testing.T, tcp bool) {
	transport.SetDialCapabilities(wire.CapCooperative)
	defer transport.SetDialCapabilities(0)

	const (
		leaves  = 2
		objects = 12
		hot     = 3
	)
	hybridCache := func(id string) CacheConfig {
		return CacheConfig{
			ID: id, Bandwidth: 4000, Tick: 5 * time.Millisecond,
			Policy: PolicyHybrid,
			Poll:   PollConfig{ReSolveEvery: 150 * time.Millisecond, Seed: 1},
		}
	}

	leafCaches := make([]*Cache, leaves)
	children := make([]Destination, leaves)
	var closeLeaf0Conn func()
	for i := 0; i < leaves; i++ {
		id := fmt.Sprintf("hyb-leaf-%d", i)
		var (
			ep   transport.CacheEndpoint
			dial func() (transport.SourceConn, error)
		)
		if tcp {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ep = transport.Serve(ln, 64)
			addr := ln.Addr().String()
			dial = func() (transport.SourceConn, error) { return transport.Dial(addr, "hyb-relay") }
		} else {
			local := transport.NewLocal(64)
			ep = local
			dial = func() (transport.SourceConn, error) { return local.Dial("hyb-relay") }
		}
		leafCaches[i] = NewCache(hybridCache(id), ep)
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		children[i] = Destination{CacheID: id, Conn: conn, Redial: dial}
		if i == 0 {
			closeLeaf0Conn = func() { conn.Close() }
		}
		defer func(i int) {
			leafCaches[i].Close()
			ep.Close()
		}(i)
	}

	var (
		upEp   transport.CacheEndpoint
		upDial func() (transport.SourceConn, error)
	)
	if tcp {
		upLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		upEp = transport.Serve(upLn, 64)
		addr := upLn.Addr().String()
		upDial = func() (transport.SourceConn, error) { return transport.Dial(addr, "hyb-root") }
	} else {
		upLocal := transport.NewLocal(64)
		upEp = upLocal
		upDial = func() (transport.SourceConn, error) { return upLocal.Dial("hyb-root") }
	}
	defer upEp.Close()
	relay, err := NewNode(NodeConfig{
		ID:            "hyb-relay",
		Intake:        CacheConfig{Bandwidth: 4000, Tick: 5 * time.Millisecond, Policy: PolicyHybrid, Poll: PollConfig{ReSolveEvery: 150 * time.Millisecond, Seed: 2}},
		PeerBandwidth: 4000,
		Metric:        metric.ValueDeviation,
		Tick:          5 * time.Millisecond,
		PeerPolicy:    PolicyHybrid,
		Hybrid:        fastMigration,
	}, upEp, children)
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	upConn, err := upDial()
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "hyb-root", Metric: metric.ValueDeviation,
		Bandwidth: 4000, Tick: 5 * time.Millisecond,
		Policy: PolicyHybrid,
		Hybrid: fastMigration,
	}, []Destination{{CacheID: "hyb-relay", Conn: upConn, Redial: upDial}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// Phase 1: skewed workload — the hot head updates every couple of
	// milliseconds, the cold tail is registered once and then only nudged —
	// long enough for the migration controllers to split the object set.
	values := make([]float64, objects)
	update := func(i int) {
		values[i]++
		src.Update(fmt.Sprintf("hyb-root/obj-%d", i), values[i])
	}
	for i := 0; i < objects; i++ {
		update(i)
	}
	runPhase := func(d time.Duration) {
		deadline := time.Now().Add(d)
		for step := 0; time.Now().Before(deadline); step++ {
			update(step % hot)
			if step%100 == 99 {
				update(hot + step%(objects-hot)) // occasional cold-tail change
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	runPhase(600 * time.Millisecond)

	waitFor(t, 5*time.Second, func() bool {
		return src.Stats().Hybrid != nil && src.Stats().Hybrid.Promotions > 0
	}, "root source to promote its hot head")

	// Mid-run failure: kill the relay→leaf-0 connection. The child session
	// must redial and resynchronize rather than end.
	closeLeaf0Conn()
	waitFor(t, 5*time.Second, func() bool {
		for _, sess := range relay.Stats().Peers.Sessions {
			if sess.CacheID == "hyb-leaf-0" && sess.Reconnects >= 1 {
				return true
			}
		}
		return false
	}, "relay child session to redial leaf 0")

	// Phase 2: keep the workload running across the reconnect, then bump
	// every object once so each has a known, strictly higher final value.
	runPhase(400 * time.Millisecond)
	for i := 0; i < objects; i++ {
		update(i)
	}

	// Values only ever increase, so holding the final value also proves no
	// leaf regressed an object after the redial or a poll→push migration.
	for li := 0; li < leaves; li++ {
		li := li
		waitFor(t, 10*time.Second, func() bool {
			for i := 0; i < objects; i++ {
				e, ok := leafCaches[li].Get(fmt.Sprintf("hyb-root/obj-%d", i))
				if !ok || e.Value != values[i] {
					return false
				}
			}
			return true
		}, fmt.Sprintf("leaf %d to hold every final value", li))
	}

	// Migration is observable end to end: the root's controller split the
	// set and promoted, and the relay's child face reports its own hybrid
	// stats (the polling relay tier of the ISSUE).
	st := src.Stats()
	if st.Hybrid == nil || st.Hybrid.Promotions == 0 || st.Hybrid.PushObjects == 0 {
		t.Errorf("root hybrid stats missing or idle: %+v", st.Hybrid)
	}
	rh := relay.Stats().Peers.Hybrid
	if rh == nil {
		t.Fatal("relay child face reports no hybrid stats")
	}
	if rh.PushObjects+rh.PollObjects == 0 {
		t.Errorf("relay child face classified nothing: %+v", rh)
	}
}

func TestHybridThreeTierLocal(t *testing.T) { testHybridThreeTier(t, false) }
func TestHybridThreeTierTCP(t *testing.T)   { testHybridThreeTier(t, true) }
