package runtime

import (
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/transport"
)

// TestRestartBehindClockIsDropped states the gap of ROADMAP item 15 as it
// stands. A sender's epoch is its start on its own wall clock, so a source
// whose first incarnation ran with its clock an hour ahead, restarted with the
// clock right, is an older incarnation to every cache that heard the first
// one. The cache keeps the first incarnation's value, and the source counts
// the refresh as sent. On the direct path the per-sender guard drops it as
// stale. Behind a relay restarted with the origin, the relay applies it and
// either skips it for the leaf, whose ack of the first copy covers it, or
// sends it and the leaf's origin-axis guard drops it. Item 15's second slice
// (epochs ordered by the caches' feedback) is what changes the answer below.
func TestRestartBehindClockIsDropped(t *testing.T) {
	ahead := func() time.Time { return time.Now().Add(time.Hour) }
	origin := func(conn transport.SourceConn, now func() time.Time) *Source {
		return NewSource(SourceConfig{
			ID: "origin", Metric: metric.ValueDeviation, Bandwidth: 1000,
			Tick: 5 * time.Millisecond, Params: pinnedParams(1e-6), Now: now,
		}, conn)
	}
	// restartOrigin runs both incarnations through dial, which returns the
	// connection an incarnation sends on, waits for settled to see the
	// restarted incarnation's refresh resolved, and checks the leaf kept the
	// first value while the source counts its refresh sent.
	restartOrigin := func(t *testing.T, leaf *Cache, dial func() transport.SourceConn, settled func(before CacheStats) bool) {
		first := origin(dial(), ahead)
		first.Update("x", 1)
		waitFor(t, 2*time.Second, func() bool {
			e, ok := leaf.Get("x")
			return ok && e.Value == 1
		}, "the first incarnation's value at the leaf")
		first.Close()

		second := origin(dial(), time.Now)
		defer second.Close()
		before := leaf.Stats()
		second.Update("x", 2)
		waitFor(t, 2*time.Second, func() bool { return settled(before) }, "the restarted source's refresh to resolve")
		if e, _ := leaf.Get("x"); e.Value != 1 {
			t.Errorf("leaf holds %v, want the first incarnation's 1: the gap is closed, update the test", e.Value)
		}
		if st := leaf.Stats(); st.Refreshes != before.Refreshes {
			t.Errorf("leaf applied %d refreshes after the restart, want none", st.Refreshes-before.Refreshes)
		}
		if sent := second.Stats().Refreshes; sent != 1 {
			t.Errorf("restarted source counts %d refreshes sent, want 1", sent)
		}
	}

	t.Run("direct", func(t *testing.T) {
		net := transport.NewLocal(16)
		leaf := fastCache(net, 10000)
		defer leaf.Close()
		restartOrigin(t, leaf, func() transport.SourceConn {
			conn, err := net.Dial("origin")
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}, func(before CacheStats) bool {
			st := leaf.Stats()
			return st.Stale+st.Refreshes > before.Stale+before.Refreshes
		})
		if st := leaf.Stats(); st.Stale != 1 {
			t.Errorf("leaf counted %d stale drops, want the restarted source's one", st.Stale)
		}
	})

	t.Run("relay", func(t *testing.T) {
		leafNet := transport.NewLocal(16)
		leaf := fastCache(leafNet, 10000)
		defer leaf.Close()
		// Each origin incarnation comes with a relay incarnation of its own,
		// restarted without a snapshot, so the relay applies the restarted
		// origin's value.
		var relay *Node
		defer func() { relay.Close() }()
		restartOrigin(t, leaf, func() transport.SourceConn {
			if relay != nil {
				relay.Close()
			}
			child, err := leafNet.Dial("relay")
			if err != nil {
				t.Fatal(err)
			}
			upNet := transport.NewLocal(16)
			relay, err = NewNode(NodeConfig{
				ID:            "relay",
				Intake:        CacheConfig{Bandwidth: 10000, Tick: 5 * time.Millisecond},
				PeerBandwidth: 10000,
				Metric:        metric.ValueDeviation,
				Params:        pinnedParams(1e-6),
				Tick:          5 * time.Millisecond,
			}, upNet, []Destination{{CacheID: "leaf", Conn: child}})
			if err != nil {
				t.Fatal(err)
			}
			up, err := upNet.Dial("origin")
			if err != nil {
				t.Fatal(err)
			}
			return up
		}, func(before CacheStats) bool {
			e, ok := relay.Get("x")
			st, skips := leaf.Stats(), relay.Stats().Peers.Sessions[0].HeldSkips
			return ok && e.Value == 2 && (skips > 0 || st.Stale+st.Refreshes > before.Stale+before.Refreshes)
		})
	})
}
