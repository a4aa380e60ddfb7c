package runtime

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"os"
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
// every push delivery path, must look the same from the receiver. Every path
// is a group with one scheduler (sched), so this is a property of the code;
// the test is the safety net for what the paths do not share — a group of
// its own or the shared group, a member that lags, a relay that splices. The
// exact legs are pinned to what the per-session flush this package once had
// delivered for the same script (testdata/stream_session.json): a held-ack
// and a split-horizon exclusion inside the contended phase, where the budget
// and the threshold bind, cost a group neither a token nor an α step, exactly
// as they cost that session nothing.

// delivered is one refresh as the receiver sees it.
type delivered struct {
	id      string
	epoch   int64 // origin axis
	version uint64
	value   float64
}

// streamLeg is one delivery path under test. An exact leg must reproduce the
// recorded stream, threshold and sent-state of its priority; the others only
// end holding the same values.
type streamLeg struct {
	name string
	// group enables the shared group (GroupConfig.Enabled), of one member;
	// otherwise the destination is a group of its own.
	group bool
	// divergence ranks objects by divergence alone (SimpleDivergence), not
	// by the default area priority. Under the area priority an update that
	// lowers an object's divergence can leave it with no area, parked until
	// its next update, and which objects end parked depends on when passes
	// reach them — timing the lagging and splice legs do not share with the
	// recorded stream.
	divergence bool
	// lag holds the member's connection for part of the contended phase
	// behind a queue of one batch, and gives the group a second member that
	// always drains, so the group goes on cutting batches and the held member
	// lags and is caught up (a group whose only member is full holds back).
	lag bool
	// splice makes the source a relay Node's peer face: the script's updates
	// reach it as refreshes over TCP and leave it splice-forwarded.
	splice bool
}

func (l streamLeg) exact() bool { return !l.lag && !l.splice }

var streamLegs = []streamLeg{
	{name: "group of its own"},
	{name: "shared group of one", group: true},
	{name: "group of its own by divergence", divergence: true},
	{name: "shared group of one by divergence", group: true, divergence: true},
	{name: "lagging member", group: true, divergence: true, lag: true},
	{name: "splice", group: true, divergence: true, splice: true},
}

// streamFixture is the recorded stream of one priority.
type streamFixture struct {
	Threshold float64               `json:"threshold"`
	HeldSkips int                   `json:"held_skips"`
	Sent      map[string][2]float64 `json:"sent"`
	Stream    []struct {
		ID      string  `json:"id"`
		Epoch   int64   `json:"epoch"`
		Version uint64  `json:"version"`
		Value   float64 `json:"value"`
	} `json:"stream"`
}

// loadStreamFixtures reads the recorded streams, keyed by priority: "area"
// and "divergence".
func loadStreamFixtures(t *testing.T) map[string]streamFixture {
	t.Helper()
	b, err := os.ReadFile("testdata/stream_session.json")
	if err != nil {
		t.Fatal(err)
	}
	var fs map[string]streamFixture
	if err := json.Unmarshal(b, &fs); err != nil {
		t.Fatal(err)
	}
	return fs
}

// got returns the recorded stream as the receiver saw it.
func (f *streamFixture) got() []delivered {
	out := make([]delivered, len(f.Stream))
	for i, r := range f.Stream {
		out[i] = delivered{r.ID, r.Epoch, r.Version, r.Value}
	}
	return out
}

// streamRig is one leg's source, its one receiver and the hand that drives
// them: a stepped clock, a Tick no ticker ever reaches, and passes run from
// the test goroutine.
type streamRig struct {
	t       *testing.T
	leg     streamLeg
	clock   *fakeClock
	batches <-chan transport.InboundBatch // what the receiver got
	gate    *blockingConn                 // the source's connection on the lagging leg
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
	got      []delivered
	holds    map[string]delivered
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
		local, other := transport.NewLocal(4096), transport.NewLocal(4096)
		conn, err := local.Dial("origin")
		if err != nil {
			t.Fatal(err)
		}
		dests := []Destination{{CacheID: "leaf", Conn: conn}}
		if leg.lag {
			r.gate = newBlockingConn(conn)
			r.gate.release()
			dests[0].Conn = struct{ transport.SourceConn }{r.gate} // hides SendFrame, which a Local connection lacks
			drained, err := other.Dial("origin")
			if err != nil {
				t.Fatal(err)
			}
			dests = append(dests, Destination{CacheID: "other", Conn: drained})
		}
		r.src, err = NewFanoutSource(SourceConfig{
			ID: "origin", Metric: metric.ValueDeviation, PriorityFn: prio,
			Bandwidth: 20, Tick: time.Hour, Params: params, Now: r.clock.Now, Group: group,
		}, dests)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.src.Close(); local.Close(); other.Close() })
		r.batches = local.Batches()
	}
	r.ss = r.src.sessions[0]
	r.src.mu.Lock()
	if shared := r.ss.group == r.src.group; shared != leg.group {
		t.Fatalf("member of the shared group=%v, want %v", shared, leg.group)
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
		Intake:        CacheConfig{Bandwidth: 1e9, Tick: time.Millisecond},
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

// ackAhead has the receiver acknowledge a version of object id one ahead of
// the canonical origin axis, so that its next update is already there.
func (r *streamRig) ackAhead(id string) {
	r.src.mu.Lock()
	o, _ := r.src.objLocked(id)
	if o == nil {
		r.src.mu.Unlock()
		r.t.Fatalf("%s was never updated", id)
	}
	e, v := r.src.originAxisLocked(o)
	r.src.mu.Unlock()
	r.ss.onFeedback(wire.Feedback{CacheID: "leaf", Held: []wire.HeldVersion{{ObjectID: id, Epoch: e, Version: v + 1}}})
}

// flush advances the clock by dt and runs one tick pass by hand, then
// collects what the receiver got.
func (r *streamRig) flush(dt time.Duration) {
	r.clock.advance(dt)
	r.ss.group.pass(false)
	r.collect()
}

// hold stops the connection draining; release lets it drain again.
func (r *streamRig) hold() { r.gate.hold(); r.held = true }

func (r *streamRig) release() {
	r.gate.release()
	r.held = false
	r.collect()
}

// collect waits for the sends in flight — every member's but a held
// connection's, so that the next pass finds the others idle rather than
// stalling on a sender worker the scheduler has not run yet — and records
// everything the receiver was sent.
func (r *streamRig) collect() {
	for _, ss := range r.src.sessions {
		for !(r.held && ss == r.ss) && ss.inflight.Load() != 0 {
			stdruntime.Gosched()
		}
	}
	sent := int(r.ss.groupSent.Load())
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

// sent returns the group's per-object sent-state, by object id.
func (r *streamRig) sent() map[string][2]float64 {
	r.src.mu.Lock()
	defer r.src.mu.Unlock()
	out := map[string][2]float64{}
	for o := range r.src.order.all() {
		so := r.ss.group.objs.at(int(o.key))
		out[o.id] = [2]float64{so.sentVal, float64(so.sentVer)}
	}
	return out
}

// runStreamScript plays the script on one leg. With race set, one more update
// lands right after the last contended pass committed its refreshes and
// before anything else runs.
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
	// lagging leg's connection stops draining for a third of it. Both
	// exclusions land here, after the lagging leg has caught up: a held ack
	// one ahead of obj-05's canonical axis, and a relayed value that already
	// passed through the receiver, then the same object again by another
	// route.
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
		switch step {
		case 70:
			r.ackAhead(ids[5])
			vals[5] += 7
			r.update(ids[5], vals[5])
		case 75:
			r.relayed("up/x", 1, Provenance{Origin: "up", Hops: 2, Via: []string{"leaf", "mid"}, Epoch: 5, Version: 1})
		case 78:
			r.relayed("up/x", 2, Provenance{Origin: "up", Hops: 1, Via: []string{"mid"}, Epoch: 5, Version: 2})
		}
		if step%5 == 4 {
			feedback()
		}
		if race && step == 99 {
			vals[3] += 40 // over any threshold the script reaches: sent this pass
			r.update(ids[3], vals[3])
		}
		r.flush(100 * time.Millisecond)
		if race && step == 99 {
			vals[3]++
			r.clock.advance(time.Millisecond)
			r.update(ids[3], vals[3])
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
	// drains in priority order.
	for range 20 {
		feedback()
		r.flush(10 * time.Second)
	}
	return r
}

func TestStreamEquivalence(t *testing.T) {
	fixtures := loadStreamFixtures(t)
	cases := []struct {
		name string
		race bool
	}{
		{name: "script"},
		{name: "update between build and commit", race: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refs := map[bool]map[string]delivered{} // what the receiver must end holding, by priority
			for _, leg := range streamLegs {
				r := runStreamScript(t, leg, tc.race)
				st := r.src.Stats()
				f := fixtures[map[bool]string{false: "area", true: "divergence"}[leg.divergence]]
				if refs[leg.divergence] == nil {
					refs[leg.divergence] = r.holds
					if !tc.race {
						refs[leg.divergence] = map[string]delivered{}
						for _, d := range f.got() {
							refs[leg.divergence][d.id] = d
						}
					}
				}
				// What must agree whatever the interleaving: the receiver ends
				// up holding the same values, nothing is left queued or owed,
				// and neither exclusion let its value through. A lagging member
				// is caught up to the group's committed copies, so it can hold
				// an older version of a value that did not change since, and
				// the held ack can have been overtaken before its catch-up.
				same := func(a, b delivered) bool { return a == b || leg.lag && a.value == b.value }
				if want := refs[leg.divergence]; !maps.EqualFunc(r.holds, want, same) {
					t.Errorf("%s: receiver holds %v\nwant %v", leg.name, r.holds, want)
				}
				if st.Pending != 0 {
					t.Errorf("%s: pending = %d after the quiet phase, want 0", leg.name, st.Pending)
				}
				for _, d := range r.got {
					if d.id == "up/x" && d.version == 1 {
						t.Errorf("%s: split-horizoned value delivered: %+v", leg.name, d)
					}
				}
				if skips := st.Sessions[0].HeldSkips; skips == 0 && !leg.lag {
					t.Errorf("%s: no held skip: the held-ack exclusion never bound", leg.name)
				}
				if !leg.exact() || tc.race {
					continue
				}
				if want := f.got(); !slices.Equal(r.got, want) {
					n := 0
					for n < len(r.got) && n < len(want) && r.got[n] == want[n] {
						n++
					}
					t.Errorf("%s delivered %d refreshes, the recorded stream %d; they part at #%d:\n%v\n%v",
						leg.name, len(r.got), len(want), n, tail(r.got, n), tail(want, n))
				}
				if st.Threshold != f.Threshold {
					t.Errorf("%s: threshold %v, recorded %v", leg.name, st.Threshold, f.Threshold)
				}
				if got := r.sent(); !maps.Equal(got, f.Sent) {
					t.Errorf("%s: sent-state %v\nrecorded %v", leg.name, got, f.Sent)
				}
				if skips := st.Sessions[0].HeldSkips; skips != f.HeldSkips {
					t.Errorf("%s: held skips = %d, recorded %d", leg.name, skips, f.HeldSkips)
				}
			}
		})
	}
}

// tail returns up to four items of s starting at n, for a readable diff.
func tail(s []delivered, n int) []delivered {
	return s[n:min(n+4, len(s))]
}
