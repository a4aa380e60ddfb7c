package runtime

import (
	"fmt"
	"maps"
	"math/rand"
	"net"
	stdruntime "runtime"
	"slices"
	"testing"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/priority"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// Stream equivalence: one scripted update stream, driven by hand through
// every push delivery path, must look the same from the receiver. The paths
// share one scheduler (sched), so this is a property of the code; the test is
// the safety net for the parts they do not share — who flushes, when the
// commit happens, how exclusions are applied.

// delivered is one refresh as the receiver sees it.
type delivered struct {
	id      string
	epoch   int64 // origin axis
	version uint64
	value   float64
}

// streamLeg is one delivery path under test. A leg is compared with the
// session leg of the same priority; a plain group leg must match its stream,
// threshold and sent-state exactly, the others only end holding the same
// values.
type streamLeg struct {
	name  string
	group bool
	// divergence ranks objects by divergence alone (SimpleDivergence), not
	// by the default area priority. Under the area priority an update that
	// lowers an object's divergence can leave it with no area, parked until
	// its next update, and which objects end parked depends on when flushes
	// reach them — timing the lagging and splice legs do not share with a
	// session.
	divergence bool
	// lag holds the member's connection for part of the contended phase
	// behind a queue of one batch, so the member lags and is caught up.
	lag bool
	// splice makes the source a relay Node's peer face: the script's updates
	// reach it as refreshes over TCP and leave it splice-forwarded.
	splice bool
}

func (l streamLeg) exact() bool { return l.group && !l.lag && !l.splice }

var streamLegs = []streamLeg{
	{name: "session"},
	{name: "group-of-one", group: true},
	{name: "session by divergence", divergence: true},
	{name: "group-of-one by divergence", group: true, divergence: true},
	{name: "lagging group-of-one", group: true, divergence: true, lag: true},
	{name: "splice", group: true, divergence: true, splice: true},
}

// midSendConn runs a one-shot hook in the middle of the next SendRefresh:
// after the refresh was built, before it is committed. Only the test's own
// goroutine sends on it.
type midSendConn struct {
	transport.SourceConn
	hook func()
}

func (c *midSendConn) SendRefresh(r wire.Refresh) error {
	if h := c.hook; h != nil {
		c.hook = nil
		h()
	}
	return c.SourceConn.SendRefresh(r)
}

// streamRig is one leg's source, its one receiver and the hand that drives
// them: a stepped clock, a Tick no ticker ever reaches, and flushes called
// from the test goroutine.
type streamRig struct {
	t       *testing.T
	leg     streamLeg
	clock   *fakeClock
	batches <-chan transport.InboundBatch // what the receiver got
	conn    *midSendConn                  // the source's connection, but on the splice leg
	gate    *blockingConn                 // inside conn on the lagging leg
	held    bool
	src     *Source
	ss      *syncSession
	// The splice leg's relay, the origin's connection to its intake, and the
	// origin axis the rig stamps: the epoch a source started with the rig
	// would have, and per object the count of its updates.
	node     *Node
	up       transport.SourceConn
	epoch    int64
	versions map[string]uint64
	// The session leg's bucket, accrued by the rig exactly as the group
	// accrues its own: rate × protocol time elapsed since the last flush.
	budget     tokenBucket
	lastAccrue float64
	got        []delivered
	holds      map[string]delivered
}

func newStreamRig(t *testing.T, leg streamLeg) *streamRig {
	t.Helper()
	r := &streamRig{t: t, leg: leg, clock: newFakeClock(), holds: map[string]delivered{}}
	params := core.DefaultParams(1, 20)
	params.DisableBeta = true
	var prio priority.Fn
	if leg.divergence {
		prio = priority.SimpleDivergence
	}
	group := GroupConfig{Enabled: leg.group}
	if leg.lag {
		group.Queue = 1
	}
	if leg.splice {
		r.startRelay(params, prio, group)
	} else {
		local := transport.NewLocal(4096)
		var conn transport.SourceConn
		conn, err := local.Dial("origin")
		if err != nil {
			t.Fatal(err)
		}
		if leg.lag {
			r.gate = newBlockingConn(conn)
			r.gate.release()
			conn = r.gate
		}
		r.conn = &midSendConn{SourceConn: conn}
		r.src, err = NewFanoutSource(SourceConfig{
			ID: "origin", Metric: metric.ValueDeviation, PriorityFn: prio,
			Bandwidth: 20, Tick: time.Hour, Params: params, Now: r.clock.Now, Group: group,
		}, []Destination{{CacheID: "leaf", Conn: r.conn}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.src.Close(); local.Close() })
		r.batches = local.Batches()
	}
	r.ss = r.src.sessions[0]
	r.src.mu.Lock()
	r.lastAccrue = r.src.now()
	if r.ss.grouped != leg.group {
		t.Fatalf("session grouped=%v, want %v", r.ss.grouped, leg.group)
	}
	r.src.mu.Unlock()
	return r
}

// startRelay makes the source under test the peer face of a relay Node with
// splice forwarding, over TCP loopback: its one peer is an endpoint the rig
// reads, and the rig feeds its intake as the origin would.
func (r *streamRig) startRelay(params core.Params, prio priority.Fn, group GroupConfig) {
	t := r.t
	listen := func() (transport.CacheEndpoint, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ep := transport.Serve(ln, 4096)
		t.Cleanup(func() { ep.Close() })
		return ep, ln.Addr().String()
	}
	leaf, leafAddr := listen()
	intake, intakeAddr := listen()
	peer, err := transport.Dial(leafAddr, "relay")
	if err != nil {
		t.Fatal(err)
	}
	r.node, err = NewNode(NodeConfig{
		ID:            "relay",
		Intake:        CacheConfig{Bandwidth: 1e9, Tick: time.Millisecond, Shards: 1},
		PeerBandwidth: 20, Metric: metric.ValueDeviation, PriorityFn: prio,
		Tick: time.Hour, Params: params,
		Group: group, SpliceForward: true, Now: r.clock.Now,
	}, intake, []Destination{{CacheID: "leaf", Conn: peer}})
	if err != nil {
		t.Fatal(err)
	}
	if r.up, err = transport.Dial(intakeAddr, "origin"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.up.Close(); r.node.Close() })
	r.src, r.batches = r.node.Source(), leaf.Batches()
	r.epoch = r.clock.Now().Add(-time.Millisecond).UnixNano()
	r.versions = map[string]uint64{}
}

// update is Source.Update on the leg's source. On the splice leg it is the
// refresh the origin would send, fed to the relay and waited for until the
// relay has forwarded it.
func (r *streamRig) update(id string, v float64) {
	if !r.leg.splice {
		r.src.Update(id, v)
		return
	}
	r.versions[id]++
	r.forward(wire.Refresh{SourceID: "origin", ObjectID: id, Value: v, Version: r.versions[id], Epoch: r.epoch})
}

// relayed is Source.UpdateFromAll of one value on the leg's source. On the
// splice leg it is a refresh arriving already relayed, from "mid".
func (r *streamRig) relayed(id string, v float64, prov Provenance) {
	if !r.leg.splice {
		r.src.UpdateFromAll([]RelayedUpdate{{ObjectID: id, Value: v, Prov: prov}})
		return
	}
	r.forward(wire.Refresh{SourceID: "mid", ObjectID: id, Value: v, Version: prov.Version, Epoch: 7,
		Origin: prov.Origin, Hops: prov.Hops, Via: prov.Via, OriginEpoch: prov.Epoch, OriginVersion: prov.Version})
}

func (r *streamRig) forward(ref wire.Refresh) {
	forwarded := func() int {
		r.node.mu.Lock()
		defer r.node.mu.Unlock()
		return r.node.forwarded
	}
	want := forwarded() + 1
	if err := r.up.SendBatch([]wire.Refresh{ref}); err != nil {
		r.t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); forwarded() < want; stdruntime.Gosched() {
		if time.Now().After(deadline) {
			r.t.Fatalf("the relay never forwarded %s", ref.ObjectID)
		}
	}
}

// flush advances the clock by dt and runs one flush tick by hand, then
// collects what the receiver got.
func (r *streamRig) flush(dt time.Duration) {
	r.clock.advance(dt)
	if r.leg.group {
		r.src.group.pass(0)
	} else {
		r.src.mu.Lock()
		now, rate := r.src.now(), r.ss.rate
		r.src.mu.Unlock()
		r.budget.accrue(rate, now-r.lastAccrue, time.Hour)
		r.lastAccrue = now
		r.budget.tokens = r.ss.flush(r.budget.tokens)
	}
	r.collect()
}

// hold stops the connection draining; release lets it drain again.
func (r *streamRig) hold() { r.gate.hold(); r.held = true }

func (r *streamRig) release() {
	r.gate.release()
	r.held = false
	r.collect()
}

// collect waits for the sends in flight, unless the connection is held, and
// records everything the receiver was sent.
func (r *streamRig) collect() {
	for !r.held && r.ss.inflight.Load() != 0 {
		stdruntime.Gosched()
	}
	r.src.mu.Lock()
	sent := r.ss.refreshes + int(r.ss.groupSent.Load())
	r.src.mu.Unlock()
	for len(r.got) < sent {
		select {
		case b := <-r.batches:
			for i := range b.Refreshes {
				ref := &b.Refreshes[i]
				e, v := ref.OriginAxis()
				d := delivered{ref.ObjectID, e, v, ref.Value}
				r.got = append(r.got, d)
				r.holds[d.id] = d
			}
		case <-time.After(5 * time.Second):
			r.t.Fatalf("the receiver got %d of the %d refreshes sent", len(r.got), sent)
		}
	}
}

// sent returns the scheduler's per-object sent-state, by object id.
func (r *streamRig) sent() map[string][2]float64 {
	r.src.mu.Lock()
	defer r.src.mu.Unlock()
	objs := r.ss.objs
	if r.leg.group {
		objs = r.src.group.objs
	}
	out := map[string][2]float64{}
	for o := range r.src.order.all() {
		out[o.id] = [2]float64{objs[o.key].sentVal, float64(objs[o.key].sentVer)}
	}
	return out
}

// runStreamScript plays the script on one leg. With race set, one update
// lands between a refresh being built and its commit on the session path —
// a window the group path, which commits under the lock hold that built the
// refresh, does not have; the group legs apply it right after that flush.
func runStreamScript(t *testing.T, leg streamLeg, race bool) *streamRig {
	r := newStreamRig(t, leg)
	rng := rand.New(rand.NewSource(22))
	const objects = 20
	ids := make([]string, objects)
	vals := make([]float64, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%02d", i)
	}
	feedback := func() { r.ss.onFeedback(wire.Feedback{CacheID: "leaf"}) }

	// Contended phase: ~2.5 updates against 2 tokens per step, so objects
	// coalesce, the budget binds and the threshold moves both ways. The
	// lagging leg's connection stops draining for a third of it.
	updates := 0
	for step := 0; step < 100; step++ {
		if leg.lag && step == 30 {
			r.hold()
		}
		if leg.lag && step == 60 {
			r.release()
		}
		for n := 2 + rng.Intn(2); n > 0; n-- {
			i := rng.Intn(objects)
			vals[i] += float64(rng.Intn(11) - 5)
			r.update(ids[i], vals[i])
			updates++
		}
		if step%5 == 4 {
			feedback()
		}
		if race && step == 99 {
			vals[3] += 40 // over any threshold the script reaches: sent this flush
			r.update(ids[3], vals[3])
			vals[3]++
			racing := func() {
				r.clock.advance(time.Millisecond)
				r.update(ids[3], vals[3])
			}
			if leg.group {
				r.flush(100 * time.Millisecond)
				racing()
				continue
			}
			r.conn.hook = racing
		}
		r.flush(100 * time.Millisecond)
		if r.conn != nil && r.conn.hook != nil {
			t.Fatal("the racing update never ran: obj-03 was not sent at the last contended step")
		}
	}
	if updates < 200 {
		t.Fatalf("script made %d updates, want at least 200", updates)
	}
	if leg.lag {
		if st := r.src.Stats().Group; st.QueueOverruns == 0 || st.Detaches == 0 {
			t.Fatalf("%s: overruns=%d lags=%d, want the held connection to have made it lag", leg.name, st.QueueOverruns, st.Detaches)
		}
	}

	// Quiet phase: no budget pressure (10 s of tokens per round) and feedback
	// every round, so the threshold falls to its floor and everything queued
	// drains in priority order. The two exclusions sit here on purpose. An
	// excluded refresh costs the group a token and an α step for a batch its
	// only member is left out of, and costs a session nothing — under budget
	// or threshold pressure that alone would reorder what follows, which is
	// the group's documented price, not a delivery difference.
	drain := func(rounds int) {
		for ; rounds > 0; rounds-- {
			feedback()
			r.flush(10 * time.Second)
		}
	}
	drain(20)
	// Held-ack exclusion: the receiver acknowledges a version of obj-05 one
	// ahead of the canonical axis, so the next update is already there.
	r.src.mu.Lock()
	o, _ := r.src.objLocked(ids[5])
	e, v := r.src.originAxisLocked(o)
	r.src.mu.Unlock()
	ahead := wire.HeldVersion{ObjectID: ids[5], Epoch: e, Version: v + 1}
	r.ss.onFeedback(wire.Feedback{CacheID: "leaf", Held: []wire.HeldVersion{ahead}})
	r.update(ids[5], vals[5]+7)
	// Split-horizon exclusion: a relayed value that already passed through
	// the receiver, then the same object again by another route.
	r.relayed("up/x", 1, Provenance{Origin: "up", Hops: 2, Via: []string{"leaf", "mid"}, Epoch: 5, Version: 1})
	drain(3)
	r.relayed("up/x", 2, Provenance{Origin: "up", Hops: 1, Via: []string{"mid"}, Epoch: 5, Version: 2})
	drain(20)
	return r
}

func TestStreamEquivalence(t *testing.T) {
	cases := []struct {
		name string
		race bool
	}{
		{name: "script"},
		{name: "update between build and commit", race: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refs := map[bool]*streamRig{} // the session leg, by priority
			for _, leg := range streamLegs {
				r := runStreamScript(t, leg, tc.race)
				st := r.src.Stats()
				if !leg.group {
					refs[leg.divergence] = r
				}
				ref := refs[leg.divergence]
				refStats := ref.src.Stats()
				// What must agree whatever the interleaving: the receiver ends
				// up holding the same values, nothing is left queued or owed,
				// and neither exclusion let its value through.
				if !maps.Equal(r.holds, ref.holds) {
					t.Errorf("%s: receiver holds %v\n%s: receiver holds %v", leg.name, r.holds, ref.leg.name, ref.holds)
				}
				if st.Pending != 0 {
					t.Errorf("%s: pending = %d after the quiet phase, want 0", leg.name, st.Pending)
				}
				for _, d := range r.got {
					if d.id == "up/x" && d.version == 1 {
						t.Errorf("%s: split-horizoned value delivered: %+v", leg.name, d)
					}
				}
				if skips := st.Sessions[0].HeldSkips; skips != 1 {
					t.Errorf("%s: held skips = %d, want 1", leg.name, skips)
				}
				if !leg.group && len(r.got) < 100 {
					t.Errorf("%s: only %d refreshes delivered: the script no longer exercises the scheduler", leg.name, len(r.got))
				}
				if !leg.exact() || tc.race {
					continue
				}
				if !slices.Equal(r.got, ref.got) {
					n := 0
					for n < len(r.got) && n < len(ref.got) && r.got[n] == ref.got[n] {
						n++
					}
					t.Errorf("%s delivered %d refreshes, %s %d; streams part at #%d:\n%v\n%v",
						leg.name, len(r.got), ref.leg.name, len(ref.got), n, tail(r.got, n), tail(ref.got, n))
				}
				if st.Threshold != refStats.Threshold {
					t.Errorf("threshold: %s %v, %s %v", leg.name, st.Threshold, ref.leg.name, refStats.Threshold)
				}
				if got, want := r.sent(), ref.sent(); !maps.Equal(got, want) {
					t.Errorf("sent-state: %s %v\n%s %v", leg.name, got, ref.leg.name, want)
				}
			}
		})
	}
}

// tail returns up to four items of s starting at n, for a readable diff.
func tail(s []delivered, n int) []delivered {
	return s[n:min(n+4, len(s))]
}
