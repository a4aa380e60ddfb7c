package runtime

import (
	"fmt"
	"testing"
	"time"

	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// stubEndpoint is a cache endpoint nobody is connected to: tests push batches
// straight into Cache.dispatch, and the hour-long tick keeps the feedback
// pass from draining acks behind their back.
type stubEndpoint struct{ batches chan transport.InboundBatch }

func (e stubEndpoint) Batches() <-chan transport.InboundBatch { return e.batches }
func (stubEndpoint) SendFeedback(string, wire.Feedback) error { return nil }
func (stubEndpoint) Sources() []string                        { return nil }
func (stubEndpoint) Close() error                             { return nil }

func quietCache(onApply func([]wire.Refresh)) *Cache {
	return NewCache(CacheConfig{
		ID: "leaf", Bandwidth: 1e9, Tick: time.Hour, OnApply: onApply,
	}, stubEndpoint{batches: make(chan transport.InboundBatch)})
}

// apply pushes one batch through the dispatcher path, which applies it.
func apply(t *testing.T, c *Cache, rs ...wire.Refresh) {
	t.Helper()
	c.dispatch(transport.InboundBatch{RefreshBatch: wire.RefreshBatch{Refreshes: rs}})
}

// relayed is a refresh for an object of origin "root" as relay sender
// re-exports it: the sender's own epoch/version, the origin axis preserved.
func relayed(sender, object string, senderVersion, originVersion uint64) wire.Refresh {
	return wire.Refresh{
		SourceID: sender, ObjectID: object, Origin: "root", Hops: 1, Via: []string{sender},
		OriginEpoch: 50, OriginVersion: originVersion,
		Value: float64(originVersion), Version: senderVersion, Epoch: 1,
	}
}

// TestAckPayloadReadAtDrain: an ack records which entry it is about, not a
// copy of the version; what is sent is the origin axis the entry has when
// the feedback is built — one ack per object however often it was dropped.
// Acks come from stale drops only: the applies that precede them owe none.
func TestAckPayloadReadAtDrain(t *testing.T) {
	c := quietCache(nil)
	defer c.Close()
	apply(t, c, relayed("relay", "root/x", 1, 5), relayed("relay", "root/y", 3, 2))
	// Re-sends the cache already holds: x twice, y once.
	apply(t, c, relayed("relay", "root/x", 1, 5))
	apply(t, c, relayed("relay", "root/x", 1, 5), relayed("relay", "root/y", 3, 2))
	// x moves on after its drops: the ack reports the version held at drain.
	apply(t, c, relayed("relay", "root/x", 2, 6))
	got := c.takeAcks("relay")
	want := map[string]wire.HeldVersion{
		"root/x": {ObjectID: "root/x", Epoch: 50, Version: 6},
		"root/y": {ObjectID: "root/y", Epoch: 50, Version: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d acks %+v, want %d", len(got), got, len(want))
	}
	for _, h := range got {
		e, _ := c.Get(h.ObjectID)
		oe, ov := e.OriginAxis()
		if h != want[h.ObjectID] || h.Epoch != oe || h.Version != ov {
			t.Errorf("ack %+v, want %+v (entry origin axis (%d, %d))", h, want[h.ObjectID], oe, ov)
		}
	}
	if again := c.takeAcks("relay"); len(again) != 0 {
		t.Errorf("acks drained twice: %+v", again)
	}
	// A direct sender is acked only for what the cache dropped as stale.
	apply(t, c, wire.Refresh{SourceID: "root", ObjectID: "root/z", Value: 1, Version: 1, Epoch: 50})
	if direct := c.takeAcks("root"); len(direct) != 0 {
		t.Errorf("a direct apply was acked: %+v", direct)
	}
	apply(t, c, wire.Refresh{SourceID: "root", ObjectID: "root/z", Value: 1, Version: 1, Epoch: 50})
	if resend := c.takeAcks("root"); len(resend) != 1 || resend[0] != (wire.HeldVersion{ObjectID: "root/z", Epoch: 50, Version: 1}) {
		t.Errorf("stale re-send acked as %+v, want root/z at (50, 1)", resend)
	}
}

// TestAckPerSender: in a diamond, two relays deliver the same origin version
// of one object — the first is applied, the second dropped by the origin-axis
// guard. The applying relay is owed nothing; the dropping relay gets its ack.
// Once both have a copy dropped, each is owed, and gets, its own ack.
func TestAckPerSender(t *testing.T) {
	c := quietCache(nil)
	defer c.Close()
	apply(t, c, relayed("relay-a", "root/x", 1, 5))
	apply(t, c, relayed("relay-b", "root/x", 9, 5))
	if st := c.Stats(); st.Refreshes != 1 || st.Stale != 1 {
		t.Fatalf("refreshes=%d stale=%d, want one apply and one origin-axis drop", st.Refreshes, st.Stale)
	}
	want := wire.HeldVersion{ObjectID: "root/x", Epoch: 50, Version: 5}
	if got := c.takeAcks("relay-a"); got != nil {
		t.Errorf("the applying relay is owed %+v, want nothing", got)
	}
	if got := c.takeAcks("relay-b"); len(got) != 1 || got[0] != want {
		t.Errorf("acks toward relay-b = %+v, want [%+v]", got, want)
	}
	// relay-a re-sends its copy (per-sender drop), relay-b its own again
	// (origin-axis drop): two senders owed an ack for one object.
	apply(t, c, relayed("relay-a", "root/x", 1, 5), relayed("relay-b", "root/x", 9, 5))
	for _, sender := range []string{"relay-b", "relay-a"} {
		if got := c.takeAcks(sender); len(got) != 1 || got[0] != want {
			t.Errorf("acks toward %s = %+v, want [%+v]", sender, got, want)
		}
	}
	if got := c.takeAcks("relay-c"); got != nil {
		t.Errorf("acks toward a sender never heard from: %+v", got)
	}
}

// TestAckBoundedPerFeedback: one feedback carries at most maxHeldPerFeedback
// acks; the rest stay pending, and every object is acked exactly once.
func TestAckBoundedPerFeedback(t *testing.T) {
	const objects = 2*maxHeldPerFeedback + 88
	c := quietCache(nil)
	defer c.Close()
	rs := make([]wire.Refresh, objects)
	for i := range rs {
		rs[i] = relayed("relay", fmt.Sprintf("root/o%04d", i), uint64(i+1), 1)
	}
	apply(t, c, rs...)
	apply(t, c, rs...) // every copy again: a stale drop, and an ack, each
	seen := map[string]bool{}
	for _, want := range []int{maxHeldPerFeedback, maxHeldPerFeedback, 88, 0} {
		got := c.takeAcks("relay")
		if len(got) != want {
			t.Fatalf("feedback carried %d acks, want %d", len(got), want)
		}
		for _, h := range got {
			if seen[h.ObjectID] {
				t.Errorf("%s acked twice", h.ObjectID)
			}
			seen[h.ObjectID] = true
		}
	}
	if len(seen) != objects {
		t.Errorf("%d of %d objects acked", len(seen), objects)
	}
}

// TestAckOwedForDropsOnly: applying a copy tells its sender nothing it
// did not send, so a stream of relayed applies from several senders, with no
// stale drop among them, leaves nothing owed and no ack set allocated.
func TestAckOwedForDropsOnly(t *testing.T) {
	c := quietCache(nil)
	defer c.Close()
	for round := uint64(1); round <= 4; round++ {
		rs := make([]wire.Refresh, 0, 2*64)
		for i := range 64 {
			// Each relay carries the objects the other does not, a round at a
			// time: both take the apply path on every copy.
			sender := []string{"relay-a", "relay-b"}[(i+int(round))%2]
			rs = append(rs, relayed(sender, fmt.Sprintf("root/o%02d", i), round, round))
		}
		apply(t, c, rs...)
	}
	if st := c.Stats(); st.Refreshes != 4*64 || st.Stale != 0 {
		t.Fatalf("refreshes=%d stale=%d, want every copy applied", st.Refreshes, st.Stale)
	}
	for _, sender := range []string{"relay-a", "relay-b"} {
		if got := c.takeAcks(sender); got != nil {
			t.Errorf("relayed applies owe %s %d acks, want none", sender, len(got))
		}
	}
	c.mu.RLock()
	owed := len(c.store.owed)
	c.mu.RUnlock()
	if owed != 0 {
		t.Errorf("the store keeps %d ack sets after applies alone, want 0", owed)
	}
}
