package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	stdruntime "runtime"
	"testing"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
	"bestsync/internal/wire/codec"
)

// frameConn is a fakeConn that also speaks the binary frame path
// (transport.FrameSender): received frames are decoded back into refreshes
// so tests can assert on exactly what a group member was sent, whichever
// path delivered it. Every successful receive is acknowledged with positive
// feedback under the member's self-reported identity — the behaviour of an
// underloaded cache, which keeps the source's threshold engine in its
// sending regime (see deliverySink in cmd/syncbench).
type frameConn struct {
	fakeConn
	id     string
	frames int // decoded frames received (guarded by fakeConn.mu)
}

func newFrameConn(id string) *frameConn {
	return &frameConn{id: id, fakeConn: fakeConn{fb: make(chan wire.Feedback, 4)}}
}

func decodeBatchFrame(b []byte) ([]wire.Refresh, error) {
	cb, err := codec.NewDecoder(bytes.NewReader(b)).ReadCacheBound()
	if err != nil {
		return nil, err
	}
	if cb.Batch == nil {
		return nil, errors.New("frame is not a refresh batch")
	}
	return cb.Batch.Refreshes, nil
}

func (c *frameConn) ack() {
	// Taken under the conn mutex: Close marks closed before closing the
	// feedback channel under the same lock, so this can never send on a
	// closed channel even when Source.Close races a delivery.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	select {
	case c.fb <- wire.Feedback{CacheID: c.id, SentUnix: time.Now().UnixNano()}:
	default:
	}
}

func (c *frameConn) SendFrame(f *codec.Frame) error {
	rs, err := decodeBatchFrame(f.Bytes())
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("frameConn: closed")
	}
	if c.failNext > 0 {
		c.failNext--
		c.mu.Unlock()
		return errors.New("frameConn: injected frame failure")
	}
	c.frames++
	c.sent = append(c.sent, rs...)
	c.mu.Unlock()
	c.ack()
	return nil
}

func (c *frameConn) SendBatch(rs []wire.Refresh) error {
	if err := c.fakeConn.SendBatch(rs); err != nil {
		return err
	}
	c.ack()
	return nil
}

func (c *frameConn) SendRefresh(r wire.Refresh) error {
	if err := c.fakeConn.SendRefresh(r); err != nil {
		return err
	}
	c.ack()
	return nil
}

func (c *frameConn) frameCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames
}

// feed pushes one feedback message into the member's stream and waits for
// the source to fold it in. Only reliable before any refresh has been
// delivered (auto-acks would race the counter afterwards).
func (c *frameConn) feed(t *testing.T, src *Source, f wire.Feedback) {
	t.Helper()
	before := src.Stats().Feedbacks
	c.fb <- f
	waitFor(t, 2*time.Second, func() bool {
		return src.Stats().Feedbacks > before
	}, "feedback to be folded in")
}

func newGroupSource(t *testing.T, conns []transport.SourceConn, cfg GroupConfig) *Source {
	t.Helper()
	cfg.Enabled = true
	dests := make([]Destination, len(conns))
	for i, c := range conns {
		dests[i] = Destination{CacheID: fmt.Sprintf("member-%d", i), Conn: c}
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "gs", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
		Group: cfg,
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// pump drives the listed objects with monotonically growing values until
// cond holds. The area-above-divergence priority (AreaGeneral) needs
// divergence to keep accruing before an object clears the refresh
// threshold — a one-shot update to a constant value schedules ~nothing —
// so tests exercise the group path the way a live workload would: a
// continuing stream of changes.
func groupPump(t *testing.T, src *Source, ids []string, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for v := 1.0; !cond(); v++ {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", msg)
		}
		for _, id := range ids {
			src.Update(id, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// received reports whether the member has been sent a refresh for objectID.
func received(c *frameConn, objectID string) bool {
	for _, r := range c.sentMsgs() {
		if r.ObjectID == objectID {
			return true
		}
	}
	return false
}

// TestGroupFanoutLocalMatchesPerSession runs the same 1→4 workload twice
// over the in-process transport — once per-session, once grouped — and
// requires both topologies to apply the identical final state at every
// cache. This is the group path's core correctness contract: encode-once
// delivery must be invisible to the caches.
func TestGroupFanoutLocalMatchesPerSession(t *testing.T) {
	const n = 4
	run := func(grouped bool) {
		nets := make([]*transport.Local, n)
		caches := make([]*Cache, n)
		dests := make([]Destination, n)
		for i := 0; i < n; i++ {
			nets[i] = transport.NewLocal(64)
			caches[i] = NewCache(CacheConfig{
				ID: fmt.Sprintf("cache-%d", i), Bandwidth: 10000,
				Tick: 5 * time.Millisecond,
			}, nets[i])
			defer caches[i].Close()
			conn, err := nets[i].Dial("s1")
			if err != nil {
				t.Fatal(err)
			}
			dests[i] = Destination{CacheID: fmt.Sprintf("cache-%d", i), Conn: conn}
		}
		src, err := NewFanoutSource(SourceConfig{
			ID: "s1", Metric: metric.ValueDeviation,
			Bandwidth: 10000, Tick: 5 * time.Millisecond,
			Group: GroupConfig{Enabled: grouped},
		}, dests)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()

		want := map[string]float64{}
		for round := 1; round <= 3; round++ {
			for k := 0; k < 5; k++ {
				id := fmt.Sprintf("s1/obj-%d", k)
				v := float64(round*10 + k)
				src.Update(id, v)
				want[id] = v
			}
		}
		for i := 0; i < n; i++ {
			i := i
			waitFor(t, 5*time.Second, func() bool {
				for id, v := range want {
					if e, ok := caches[i].Get(id); !ok || e.Value != v {
						return false
					}
				}
				return true
			}, fmt.Sprintf("cache %d to apply the full final state (grouped=%v)", i, grouped))
		}

		st := src.Stats()
		if grouped {
			if st.Group == nil || st.Group.Members != n {
				t.Fatalf("group stats = %+v, want %d members", st.Group, n)
			}
			if st.Group.Batches == 0 || st.Group.Delivered == 0 {
				t.Errorf("group did not broadcast: %+v", st.Group)
			}
			for i, sess := range st.Sessions {
				if !sess.Grouped {
					t.Errorf("session %d not grouped", i)
				}
				if sess.Refreshes == 0 {
					t.Errorf("session %d reports no refreshes despite group delivery", i)
				}
			}
		} else if st.Group != nil {
			t.Errorf("ungrouped run reports group stats %+v", st.Group)
		}
	}
	run(false)
	run(true)
}

// TestGroupFanoutTCP drives group delivery over the real wire: binary-codec
// TCP connections take the shared-frame path end to end and every cache
// applies the full final state.
func TestGroupFanoutTCP(t *testing.T) {
	const n = 3
	caches := make([]*Cache, n)
	eps := make([]transport.CacheEndpoint, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = transport.Serve(ln, 64)
		caches[i] = NewCache(CacheConfig{
			ID: fmt.Sprintf("tcp-cache-%d", i), Bandwidth: 10000,
			Tick: 5 * time.Millisecond,
		}, eps[i])
		addrs[i] = ln.Addr().String()
		defer func(i int) {
			caches[i].Close()
			eps[i].Close()
		}(i)
	}
	conns, err := transport.DialAll(addrs, "agent-1")
	if err != nil {
		t.Fatal(err)
	}
	dests := make([]Destination, n)
	for i, c := range conns {
		dests[i] = Destination{CacheID: fmt.Sprintf("dest-%d", i), Conn: c}
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "agent-1", Metric: metric.ValueDeviation,
		Bandwidth: 3000, Tick: 5 * time.Millisecond,
		Group: GroupConfig{Enabled: true},
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	for round := 1; round <= 5; round++ {
		for k := 0; k < 4; k++ {
			src.Update(fmt.Sprintf("agent-1/val-%d", k), float64(round*10+k))
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < n; i++ {
		i := i
		waitFor(t, 5*time.Second, func() bool {
			for k := 0; k < 4; k++ {
				e, ok := caches[i].Get(fmt.Sprintf("agent-1/val-%d", k))
				if !ok || e.Value != float64(50+k) {
					return false
				}
			}
			return true
		}, fmt.Sprintf("cache %d to hold all final values", i))
	}
	st := src.Stats()
	if st.Group == nil || st.Group.Members != n {
		t.Fatalf("group stats = %+v, want %d members", st.Group, n)
	}
	if st.Group.Delivered == 0 {
		t.Error("no group deliveries over TCP")
	}
	// TCP connections take frames, so the broadcasts must have used the
	// encode-once path, not per-member re-encoding.
	if st.Group.Batches == 0 {
		t.Error("no group batches over TCP")
	}
}

// TestGroupHeldSkipExclusion: a member that acknowledged holding a version
// AHEAD of the canonical origin axis must be excluded from broadcasts of
// that object — it would only drop the send as stale — while the rest of
// the cohort still receives it, and member-filtered copies are addressed
// with the member's self-reported identity.
func TestGroupHeldSkipExclusion(t *testing.T) {
	a, b := newFrameConn("remote-a"), newFrameConn("remote-b")
	src := newGroupSource(t, []transport.SourceConn{a, b}, GroupConfig{})
	defer src.Close()

	// Member a acks object "x" at a far-future origin epoch: ahead of
	// anything this source will ever schedule.
	a.feed(t, src, wire.Feedback{CacheID: "remote-a", Held: []wire.HeldVersion{
		{ObjectID: "gs/x", Epoch: time.Now().Add(time.Hour).UnixNano(), Version: 99},
	}})

	groupPump(t, src, []string{"gs/x", "gs/y"}, func() bool {
		return received(b, "gs/x") && received(b, "gs/y") && received(a, "gs/y")
	}, "cohort delivery with one member excluded from gs/x")

	for _, r := range a.sentMsgs() {
		if r.ObjectID == "gs/x" {
			t.Fatalf("member received held-acked object: %+v", r)
		}
		if r.CacheID != "" && r.CacheID != "remote-a" {
			t.Errorf("member-filtered refresh stamped %q, want remote-a or unaddressed", r.CacheID)
		}
	}
	st := src.Stats()
	if st.Group.Fallbacks == 0 {
		t.Error("no member-filtered sends recorded despite held exclusion")
	}
	if st.Sessions[0].HeldSkips == 0 {
		t.Error("held member reports no held skips")
	}
}

// TestGroupSplitHorizonExclusion: a member that is the ORIGIN of a relayed
// value (or on its Via path) must not have that value advertised back to it
// by a group broadcast; the rest of the cohort still receives it.
func TestGroupSplitHorizonExclusion(t *testing.T) {
	a, b := newFrameConn("peer-a"), newFrameConn("peer-b")
	src := newGroupSource(t, []transport.SourceConn{a, b}, GroupConfig{})
	defer src.Close()

	// Member a identifies itself; values it originated are then re-exported
	// through this source alongside a local object.
	a.feed(t, src, wire.Feedback{CacheID: "peer-a"})
	deadline := time.Now().Add(5 * time.Second)
	for v := 1.0; ; v++ {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for split-horizon delivery")
		}
		src.UpdateFrom("peer-a/obj", v, Provenance{
			Origin: "peer-a", Hops: 1, Via: []string{"relay-1"},
			Epoch: 123, Version: uint64(v),
		})
		src.Update("gs/local", v)
		if received(b, "peer-a/obj") && received(b, "gs/local") && received(a, "gs/local") {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, r := range a.sentMsgs() {
		if r.ObjectID == "peer-a/obj" {
			t.Fatalf("origin member received its own value back: %+v", r)
		}
	}
}

// TestGroupRedialResyncRejoin: a member whose connection dies leaves the
// group (receiving nothing meanwhile), redials, is fully re-synchronized on
// its individual path, and re-attaches once caught up — with the final
// state identical to the cohort's.
func TestGroupRedialResyncRejoin(t *testing.T) {
	const n = 2
	nets := make([]*transport.Local, n)
	caches := make([]*Cache, n)
	dests := make([]Destination, n)
	for i := 0; i < n; i++ {
		i := i
		nets[i] = transport.NewLocal(64)
		caches[i] = NewCache(CacheConfig{
			ID: fmt.Sprintf("cache-%d", i), Bandwidth: 10000,
			Tick: 5 * time.Millisecond,
		}, nets[i])
		defer caches[i].Close()
		conn, err := nets[i].Dial("s1")
		if err != nil {
			t.Fatal(err)
		}
		dests[i] = Destination{
			CacheID: fmt.Sprintf("cache-%d", i),
			Conn:    conn,
			Redial:  func() (transport.SourceConn, error) { return nets[i].Dial("s1") },
		}
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation,
		Bandwidth: 10000, Tick: 5 * time.Millisecond,
		Group: GroupConfig{Enabled: true},
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	src.Update("s1/a", 1)
	src.Update("s1/b", 2)
	waitFor(t, 5*time.Second, func() bool {
		e, ok := caches[0].Get("s1/b")
		return ok && e.Value == 2
	}, "initial group delivery to land")

	// Kill member 0's connection: the group must drop it (no stale sends
	// into a dead pipe) and the session must redial and re-sync.
	src.mu.Lock()
	dead := src.sessions[0].dest.Conn
	src.mu.Unlock()
	dead.Close()

	waitFor(t, 5*time.Second, func() bool {
		st := src.Stats()
		return st.Group != nil && st.Group.Detaches >= 1 && st.Sessions[0].Reconnects >= 1
	}, "member to detach and reconnect")

	// New state produced while the member is (or was) away must arrive via
	// the individual re-sync, then the member re-attaches.
	src.Update("s1/c", 3)
	waitFor(t, 5*time.Second, func() bool {
		e, ok := caches[0].Get("s1/c")
		return ok && e.Value == 3
	}, "re-synced member to receive post-failure state")
	waitFor(t, 5*time.Second, func() bool {
		st := src.Stats()
		return st.Group.Rejoins >= 1 && st.Sessions[0].Grouped
	}, "member to rejoin the group after catching up")

	// Group delivery must work again for the rejoined member.
	src.Update("s1/d", 4)
	for i := 0; i < n; i++ {
		i := i
		waitFor(t, 5*time.Second, func() bool {
			e, ok := caches[i].Get("s1/d")
			return ok && e.Value == 4
		}, fmt.Sprintf("cache %d to receive post-rejoin broadcast", i))
	}
	if fl := src.group.framesLive.Load(); fl != 0 {
		t.Errorf("framesLive = %d after quiesce, want 0", fl)
	}
}

// TestGroupSendFailureDetach: a frame send failing mid-broadcast must not
// leak the shared frame, must not disturb the other members, and must push
// the failed member out through the standard detach path.
func TestGroupSendFailureDetach(t *testing.T) {
	a, b := newFrameConn("fail-a"), newFrameConn("ok-b")
	src := newGroupSource(t, []transport.SourceConn{a, b}, GroupConfig{})
	defer src.Close()

	groupPump(t, src, []string{"gs/one"}, func() bool {
		return received(a, "gs/one") && received(b, "gs/one")
	}, "initial broadcast to land on both members")

	a.setFailures(1)
	groupPump(t, src, []string{"gs/two"}, func() bool {
		st := src.Stats()
		return st.Group != nil && st.Group.SendErrors >= 1 && st.Group.Detaches >= 1
	}, "failed member to detach")
	waitFor(t, 5*time.Second, func() bool {
		return received(b, "gs/two")
	}, "surviving member to receive the batch")
	waitFor(t, 5*time.Second, func() bool {
		return src.group.framesLive.Load() == 0
	}, "all shared frames to be released after the failure")
	st := src.Stats()
	if st.Group.Members != 1 {
		t.Errorf("members = %d after failure, want 1", st.Group.Members)
	}
	if !st.Sessions[1].Grouped || st.Sessions[0].Grouped {
		t.Errorf("grouped flags = %v/%v, want failed member out, survivor in",
			st.Sessions[0].Grouped, st.Sessions[1].Grouped)
	}
}

// blockingConn is a frame-capable connection whose sends block until
// released (or until the connection closes) — a peer that stopped draining.
type blockingConn struct {
	fb      chan wire.Feedback
	release chan struct{}
	closed  chan struct{}
}

func newBlockingConn() *blockingConn {
	return &blockingConn{
		fb:      make(chan wire.Feedback, 4),
		release: make(chan struct{}),
		closed:  make(chan struct{}),
	}
}

func (c *blockingConn) wait() error {
	select {
	case <-c.release:
		return nil
	case <-c.closed:
		return errors.New("blockingConn: closed")
	}
}

func (c *blockingConn) SendRefresh(wire.Refresh) error { return c.wait() }
func (c *blockingConn) SendBatch([]wire.Refresh) error { return c.wait() }
func (c *blockingConn) SendFrame(*codec.Frame) error   { return c.wait() }
func (c *blockingConn) Feedback() <-chan wire.Feedback { return c.fb }
func (c *blockingConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

// TestGroupQueueOverrunDetach: a member whose connection stops draining is
// detached once its outstanding-batch bound is hit, instead of
// back-pressuring the whole cohort; the healthy member keeps receiving.
func TestGroupQueueOverrunDetach(t *testing.T) {
	blocked := newBlockingConn()
	healthy := newFrameConn("ok")
	src := newGroupSource(t, []transport.SourceConn{blocked, healthy},
		GroupConfig{Workers: 2, Queue: 1})
	defer src.Close()

	// Distinct objects so every tick has something over threshold.
	for i := 0; ; i++ {
		src.Update(fmt.Sprintf("gs/o-%d", i%8), float64(i))
		st := src.Stats()
		if st.Group != nil && st.Group.QueueOverruns >= 1 {
			break
		}
		if i > 10000 {
			t.Fatal("no queue overrun despite a blocked member")
		}
		time.Sleep(time.Millisecond)
	}
	st := src.Stats()
	if st.Sessions[0].Grouped {
		t.Error("blocked member still grouped after overrun")
	}
	if !st.Sessions[1].Grouped {
		t.Error("healthy member was detached along with the blocked one")
	}
	waitFor(t, 5*time.Second, func() bool {
		return len(healthy.sentMsgs()) > 0
	}, "healthy member to keep receiving")

	// Release the blocked send so the worker and the individual path can
	// drain, then verify no frame leaked.
	close(blocked.release)
	waitFor(t, 5*time.Second, func() bool {
		return src.group.framesLive.Load() == 0
	}, "shared frames to drain after release")
}

// TestGroupCloseReleasesFrames: closing the source with broadcasts still
// queued behind a blocked member must release every shared frame — the
// workers drain their queues against the closed connections.
func TestGroupCloseReleasesFrames(t *testing.T) {
	blocked := newBlockingConn()
	healthy := newFrameConn("ok")
	src := newGroupSource(t, []transport.SourceConn{blocked, healthy},
		GroupConfig{Workers: 1, Queue: 8})

	// Let some broadcasts queue up behind the blocked connection.
	groupPump(t, src, []string{"gs/o-0", "gs/o-1", "gs/o-2", "gs/o-3"}, func() bool {
		st := src.Stats()
		return st.Group != nil && st.Group.Batches >= 1
	}, "broadcasts to be scheduled")

	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if fl := src.group.framesLive.Load(); fl != 0 {
		t.Fatalf("framesLive = %d after Close, want 0 (leak or double-release)", fl)
	}
}

// TestGroupRemoveDestination: removing a grouped member shrinks the
// broadcast set without re-sync (it is leaving, not falling back) and the
// survivors keep converging.
func TestGroupRemoveDestination(t *testing.T) {
	a, b := newFrameConn("rm-a"), newFrameConn("rm-b")
	src := newGroupSource(t, []transport.SourceConn{a, b}, GroupConfig{})
	defer src.Close()

	groupPump(t, src, []string{"gs/x"}, func() bool {
		return received(a, "gs/x")
	}, "initial broadcast")

	if err := src.RemoveDestination("member-0"); err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if st.Group == nil || st.Group.Members != 1 {
		t.Fatalf("members = %+v, want 1 after removal", st.Group)
	}
	before := len(a.sentMsgs())
	groupPump(t, src, []string{"gs/y"}, func() bool {
		return received(b, "gs/y")
	}, "survivor to keep receiving broadcasts")
	// Keep the workload flowing a little longer: the removed member must
	// see none of it.
	for v := 0; v < 25; v++ {
		src.Update("gs/y", float64(1000+v))
		time.Sleep(2 * time.Millisecond)
	}
	if after := len(a.sentMsgs()); after != before {
		t.Errorf("removed member still receiving (%d -> %d)", before, after)
	}
}

// TestGroupLateJoinerSyncsBeforeAttach: a destination added to a running
// group source with a non-empty store starts on the individual path, is
// fully synchronized from scratch, and only then joins the group.
func TestGroupLateJoinerSyncsBeforeAttach(t *testing.T) {
	a := newFrameConn("early")
	src := newGroupSource(t, []transport.SourceConn{a}, GroupConfig{})
	defer src.Close()

	groupPump(t, src, []string{"gs/x", "gs/y"}, func() bool {
		return received(a, "gs/x") && received(a, "gs/y")
	}, "seed state to broadcast")

	late := newFrameConn("late")
	if err := src.AddDestination(Destination{CacheID: "late", Conn: late}); err != nil {
		t.Fatal(err)
	}
	// Keep the workload flowing: the late joiner re-syncs on its individual
	// path and re-attaches at the first tick its queue drains (between
	// updates); with the event-driven priority discipline a stopped
	// workload would leave a below-threshold residual parked forever.
	groupPump(t, src, []string{"gs/x", "gs/y"}, func() bool {
		st := src.Stats()
		return received(late, "gs/x") && received(late, "gs/y") &&
			st.Group != nil && st.Group.Members == 2
	}, "late joiner to re-synchronize and attach")
}

// earlyRig is a group of two in-process members driven by hand: a stepped
// clock and a Tick no ticker reaches, so the only thing that can send is the
// size trigger (or the test calling pass itself). The threshold is pinned by
// default — every update is over it and neither sends nor feedback move it.
type earlyRig struct {
	clock *fakeClock
	nets  []*transport.Local
	src   *Source
	g     *SessionGroup
}

func newEarlyRig(t *testing.T, bandwidth float64, tick time.Duration, params core.Params) *earlyRig {
	t.Helper()
	r := &earlyRig{clock: newFakeClock(), nets: make([]*transport.Local, 2)}
	dests := make([]Destination, len(r.nets))
	for i := range r.nets {
		r.nets[i] = transport.NewLocal(64)
		conn, err := r.nets[i].Dial("origin")
		if err != nil {
			t.Fatal(err)
		}
		dests[i] = Destination{CacheID: fmt.Sprintf("leaf-%d", i), Conn: conn}
	}
	src, err := NewFanoutSource(SourceConfig{
		ID: "origin", Metric: metric.ValueDeviation, Bandwidth: bandwidth,
		Tick: tick, Params: params, Now: r.clock.Now,
		Group: GroupConfig{Enabled: true, Queue: 64},
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		src.Close()
		for _, n := range r.nets {
			n.Close()
		}
	})
	r.src, r.g = src, src.group
	// Protocol time must be past zero for a never-sent object to have area,
	// and the bucket accrues over the step.
	r.clock.advance(time.Second)
	return r
}

// trigger reads the size trigger's state.
func (r *earlyRig) trigger() (waking, disarmed bool, queued int) {
	r.src.mu.Lock()
	defer r.src.mu.Unlock()
	return r.g.waking, r.g.disarmed, len(r.g.wake)
}

// settle waits for the flusher to finish the early pass it was asked for and
// for the sender workers to hand everything over.
func (r *earlyRig) settle(t *testing.T) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		waking, _, queued := r.trigger()
		if waking || queued != 0 {
			return false
		}
		for _, ss := range r.src.sessions {
			if ss.inflight.Load() != 0 {
				return false
			}
		}
		return true
	}, "the early pass to finish")
}

// frames drains what member i received, as frame sizes.
func (r *earlyRig) frames(i int) []int {
	var sizes []int
	for {
		select {
		case b := <-r.nets[i].Batches():
			sizes = append(sizes, len(b.Refreshes))
		default:
			return sizes
		}
	}
}

// TestGroupEarlyPass: a full run of frames leaves when it is ready, not at the
// next tick — and only a full run does.
func TestGroupEarlyPass(t *testing.T) {
	feeders := map[string]func(src *Source, from, to int){
		"Update": func(src *Source, from, to int) {
			for i := from; i < to; i++ {
				src.Update(fmt.Sprintf("obj-%04d", i), 1)
			}
		},
		// A relay's classic (non-splice) forward path: one call per applied
		// batch, the trigger consulted once after the loop.
		"UpdateFromAll": func(src *Source, from, to int) {
			ups := make([]RelayedUpdate, 0, to-from)
			for i := from; i < to; i++ {
				ups = append(ups, RelayedUpdate{ObjectID: fmt.Sprintf("obj-%04d", i), Value: 1,
					Prov: Provenance{Origin: "up", Hops: 1, Via: []string{"mid"}, Epoch: 5, Version: uint64(i + 1)}})
			}
			src.UpdateFromAll(ups)
		},
	}
	for name, feed := range feeders {
		t.Run(name, func(t *testing.T) {
			r := newEarlyRig(t, 2e6, time.Hour, pinnedParams(1e-6))
			quantum := r.g.quantum()
			if quantum != earlyFrames*64 {
				t.Fatalf("quantum = %d, want %d frames of the default 64", quantum, earlyFrames)
			}

			feed(r.src, 0, quantum-1)
			if waking, _, queued := r.trigger(); waking || queued != 0 {
				t.Fatalf("one short of the quantum: waking=%v, %d requests queued, want none", waking, queued)
			}
			if st := r.src.Stats().Group; st.Batches != 0 || st.Pending != quantum-1 {
				t.Fatalf("one short of the quantum: batches=%d pending=%d, want 0 and %d", st.Batches, st.Pending, quantum-1)
			}

			feed(r.src, quantum-1, quantum+10)
			r.settle(t)
			st := r.src.Stats().Group
			if st.Scheduled != quantum || st.Batches != earlyFrames || st.EarlyBatches != earlyFrames || st.Pending != 10 {
				t.Fatalf("after the early pass: scheduled=%d batches=%d early=%d pending=%d, want %d, %d, %d and 10",
					st.Scheduled, st.Batches, st.EarlyBatches, st.Pending, quantum, earlyFrames, earlyFrames)
			}
			for i := range r.nets {
				sizes := r.frames(i)
				if len(sizes) != earlyFrames {
					t.Fatalf("member %d received %d frames, want %d", i, len(sizes), earlyFrames)
				}
				for _, n := range sizes {
					if n != r.g.cfg.MaxBatch {
						t.Fatalf("member %d received frames of %v, want every one full", i, sizes)
					}
				}
			}

			// The remainder is the tick's.
			r.g.pass(0)
			r.settle(t)
			st = r.src.Stats().Group
			if st.Scheduled != quantum+10 || st.Batches != earlyFrames+1 || st.EarlyBatches != earlyFrames || st.Pending != 0 {
				t.Fatalf("after the tick pass: scheduled=%d batches=%d early=%d pending=%d, want %d, %d, %d and 0",
					st.Scheduled, st.Batches, st.EarlyBatches, st.Pending, quantum+10, earlyFrames+1, earlyFrames)
			}
			for i := range r.nets {
				if sizes := r.frames(i); len(sizes) != 1 || sizes[0] != 10 {
					t.Fatalf("member %d received %v on the tick, want one frame of 10", i, sizes)
				}
			}
		})
	}
}

// TestGroupEarlyPassBudgetLimited: a group whose bucket cannot hold a quantum
// (1000 msg/s per member at a 10 ms tick: a burst of 20) never passes early
// however long its queue, and stays inside its budget.
func TestGroupEarlyPassBudgetLimited(t *testing.T) {
	r := newEarlyRig(t, 2000, 10*time.Millisecond, pinnedParams(1e-6))
	start := r.clock.Now()
	for i := 0; i < 4*r.g.quantum(); i++ {
		r.src.Update(fmt.Sprintf("obj-%04d", i), 1)
		if waking, _, queued := r.trigger(); waking || queued != 0 {
			t.Fatalf("update %d: the trigger fired on a budget-limited group", i)
		}
		if i%64 == 0 {
			r.clock.advance(time.Millisecond)
			for j := range r.nets {
				r.frames(j) // keep the members draining
			}
		}
	}
	waitFor(t, 5*time.Second, func() bool { return r.src.Stats().Group.Batches > 0 }, "a tick pass")
	r.src.mu.Lock()
	elapsed := r.clock.Now().Sub(start).Seconds() + 1 // the rig's opening step accrued too
	scheduled, early, rate := r.g.scheduled, r.g.earlyBatches, r.g.rate
	r.src.mu.Unlock()
	if early != 0 {
		t.Errorf("%d early batches on a budget-limited group, want 0", early)
	}
	if limit := rate*elapsed + tokenBurst(rate, 10*time.Millisecond); float64(scheduled) > limit {
		t.Errorf("scheduled %d refreshes in %.3f s at %.0f/s, over the budget of %.1f", scheduled, elapsed, rate, limit)
	}
}

// TestGroupEarlyPassDisarmsOnResiduals: a queue that is long only because it
// is full of under-threshold residuals costs one fruitless early pass per
// tick, not one per update.
func TestGroupEarlyPassDisarmsOnResiduals(t *testing.T) {
	r := newEarlyRig(t, 2e6, time.Hour, pinnedParams(1e-6))
	r.src.mu.Lock()
	r.g.eng.SetThreshold(1e9) // pinned params: nothing moves it back
	r.src.mu.Unlock()
	quantum := r.g.quantum()

	for round := 0; round < 2; round++ {
		// Crossing the quantum (the first round) or the first update after a
		// tick (the second) asks for exactly one pass, which finds nothing.
		for i := 0; i < quantum; i++ {
			r.src.Update(fmt.Sprintf("obj-%04d", i), float64(round+1))
		}
		r.settle(t)
		if _, disarmed, _ := r.trigger(); !disarmed {
			t.Fatalf("round %d: the fruitless pass left the trigger armed", round)
		}
		// A stream of updates over the same residuals asks for none.
		for i := 0; i < 200; i++ {
			r.src.Update(fmt.Sprintf("obj-%04d", i), float64(round+10))
			if waking, _, queued := r.trigger(); waking || queued != 0 {
				t.Fatalf("round %d, update %d: a disarmed trigger fired", round, i)
			}
		}
		if st := r.src.Stats().Group; st.Batches != 0 || st.Pending != quantum {
			t.Fatalf("round %d: batches=%d pending=%d, want 0 and %d", round, st.Batches, st.Pending, quantum)
		}
		r.g.pass(0) // the tick re-arms it
		if _, disarmed, _ := r.trigger(); disarmed {
			t.Fatalf("round %d: the tick pass left the trigger disarmed", round)
		}
	}
}

// TestGroupEarlyPassCloseWithWakePending: shutdown racing an early-pass
// request neither hangs nor leaks a shared frame, whichever the flusher sees
// first.
func TestGroupEarlyPassCloseWithWakePending(t *testing.T) {
	a, b := newFrameConn("close-a"), newFrameConn("close-b")
	clock := newFakeClock()
	src, err := NewFanoutSource(SourceConfig{
		ID: "origin", Metric: metric.ValueDeviation, Bandwidth: 2e6,
		Tick: time.Hour, Params: pinnedParams(1e-6), Now: clock.Now,
		Group: GroupConfig{Enabled: true, Queue: 64},
	}, []Destination{{CacheID: "a", Conn: a}, {CacheID: "b", Conn: b}})
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(time.Second)
	g := src.group

	// Hold the lock across the updates and the start of Close, so the request
	// is still outstanding when the stop channel closes.
	src.mu.Lock()
	now, unix := src.clock()
	for i := 0; i < g.quantum(); i++ {
		src.updateLocked(fmt.Sprintf("obj-%04d", i), 1, Provenance{}, now, unix)
	}
	g.wakeLocked(now)
	if !g.waking {
		src.mu.Unlock()
		t.Fatal("a full quantum with an ample bucket did not ask for a pass")
	}
	closed := make(chan error, 1)
	go func() { closed <- src.Close() }()
	for stopped := false; !stopped; {
		select {
		case <-src.stop:
			stopped = true
		default:
			stdruntime.Gosched()
		}
	}
	src.mu.Unlock()

	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an early-pass request pending")
	}
	if fl := g.framesLive.Load(); fl != 0 {
		t.Fatalf("framesLive = %d after Close, want 0", fl)
	}
}

// TestGroupLimited: the engine is limited — and ignores positive feedback —
// exactly when sendable work is left and the bucket cannot pay for one more
// refresh, whatever kind of pass looked last.
func TestGroupLimited(t *testing.T) {
	params := core.Params{Alpha: 1, Omega: 2, InitialThreshold: 0.5, DisableBeta: true}
	feedback := func(r *earlyRig) { r.src.sessions[0].onFeedback(wire.Feedback{CacheID: "leaf-0"}) }
	state := func(r *earlyRig) (limited bool, threshold float64) {
		r.src.mu.Lock()
		defer r.src.mu.Unlock()
		return r.g.eng.Limited(), r.g.eng.Threshold()
	}

	t.Run("a starved pass", func(t *testing.T) {
		r := newEarlyRig(t, 0.002, time.Hour, params)
		r.src.Update("obj", 100)
		r.g.pass(0) // cuts nothing: the bucket holds a thousandth of a token
		if st := r.src.Stats().Group; st.Batches != 0 || st.Pending != 1 {
			t.Fatalf("batches=%d pending=%d, want 0 and 1", st.Batches, st.Pending)
		}
		if limited, _ := state(r); !limited {
			t.Fatal("sendable work and an empty bucket, but the engine is not limited")
		}
		feedback(r)
		if _, th := state(r); th != params.InitialThreshold {
			t.Fatalf("a limited engine took positive feedback: threshold %v, want %v", th, params.InitialThreshold)
		}
	})

	t.Run("an early pass that stops by choice", func(t *testing.T) {
		r := newEarlyRig(t, 2e6, time.Hour, params)
		for i := 0; i < r.g.quantum()+10; i++ {
			r.src.Update(fmt.Sprintf("obj-%04d", i), 100)
		}
		r.settle(t)
		if st := r.src.Stats().Group; st.EarlyBatches != earlyFrames || st.Pending != 10 {
			t.Fatalf("early=%d pending=%d, want %d and 10", st.EarlyBatches, st.Pending, earlyFrames)
		}
		if limited, _ := state(r); limited {
			t.Fatal("a partial frame left behind with budget in hand, but the engine is limited")
		}
		feedback(r)
		if _, th := state(r); th != params.InitialThreshold/params.Omega {
			t.Fatalf("threshold %v after positive feedback, want %v", th, params.InitialThreshold/params.Omega)
		}
	})
}
