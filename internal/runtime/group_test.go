package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	stdruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/priority"
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

// pumpUntil runs update with monotonically growing values until cond holds. The
// area-above-divergence priority (AreaGeneral) needs divergence to keep
// accruing before an object clears the refresh threshold — a one-shot update
// to a constant value schedules ~nothing — so tests exercise the group path
// the way a live workload would: a continuing stream of changes.
func pumpUntil(t *testing.T, update func(v float64), cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for v := 1.0; !cond(); v++ {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", msg)
		}
		update(v)
		time.Sleep(2 * time.Millisecond)
	}
}

// groupPump pumps the listed objects of src.
func groupPump(t *testing.T, src *Source, ids []string, cond func() bool, msg string) {
	t.Helper()
	pumpUntil(t, func(v float64) {
		for _, id := range ids {
			src.Update(id, v)
		}
	}, cond, msg)
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
// over the in-process transport — once with a group per destination, once
// with one shared group — and requires both topologies to apply the
// identical final state at every cache. This is the group path's core
// correctness contract: encode-once delivery must be invisible to the caches.
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

	// A batch that carries gs/x alone skips member a whole; only one that
	// carries both objects is re-cut for a, so pump until one has been.
	groupPump(t, src, []string{"gs/x", "gs/y"}, func() bool {
		return received(b, "gs/x") && received(b, "gs/y") && received(a, "gs/y") &&
			src.Stats().Group.Fallbacks > 0
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
	pumpUntil(t, func(v float64) {
		src.UpdateFrom("peer-a/obj", v, Provenance{
			Origin: "peer-a", Hops: 1, Via: []string{"relay-1"},
			Epoch: 123, Version: uint64(v),
		})
		src.Update("gs/local", v)
	}, func() bool {
		return received(b, "peer-a/obj") && received(b, "gs/local") && received(a, "gs/local")
	}, "split-horizon delivery")
	for _, r := range a.sentMsgs() {
		if r.ObjectID == "peer-a/obj" {
			t.Fatalf("origin member received its own value back: %+v", r)
		}
	}
}

// lagRig is a group source driven by hand, like earlyRig: a stepped clock and
// a Tick no ticker reaches, so nothing is sent unless the test runs a tick.
// Unless cfg says otherwise, the threshold is pinned under every move and the
// budget never binds.
type lagRig struct {
	clock *fakeClock
	src   *Source
}

func newLagRig(t *testing.T, cfg SourceConfig, dests ...Destination) *lagRig {
	t.Helper()
	r := &lagRig{clock: newFakeClock()}
	cfg.ID, cfg.Metric, cfg.Tick, cfg.Now, cfg.Group.Enabled = "gs", metric.ValueDeviation, time.Hour, r.clock.Now, true
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = 1e9
	}
	if cfg.Params == (core.Params{}) {
		cfg.Params = pinnedParams(1e-6)
	}
	src, err := NewFanoutSource(cfg, dests)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	r.src = src
	// Protocol time must be past zero for a never-sent object to have area.
	r.clock.advance(time.Second)
	return r
}

// update sets every object of ids to v, with the group's pass lock held: an
// early pass the updates ask for starts only once all of them are queued, so
// the batches a step is cut into do not depend on how fast the flusher
// wakes, and the carry they leave is the same every run.
func (r *lagRig) update(ids []string, v float64) {
	r.src.group.passMu.Lock()
	defer r.src.group.passMu.Unlock()
	for _, id := range ids {
		r.src.Update(id, v)
	}
}

// tick runs the flusher's tick pass, waits for the sends to finish (see
// settle) and steps the clock, so that what is updated next has area.
func (r *lagRig) tick(t *testing.T, stuck ...*groupWorker) {
	t.Helper()
	r.src.group.pass(false)
	r.settle(t, stuck...)
	r.clock.advance(time.Second)
}

// settle waits until no member has a send outstanding, except those whose
// worker is in stuck: queued behind a member that stopped draining.
func (r *lagRig) settle(t *testing.T, stuck ...*groupWorker) {
	t.Helper()
	drained := func() bool {
		r.src.mu.Lock()
		defer r.src.mu.Unlock()
		for _, ss := range r.src.sessions {
			if ss.inflight.Load() != 0 && !slices.Contains(stuck, ss.worker) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !drained(); stdruntime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the sender workers did not drain")
		}
	}
}

// workerOf returns the worker member i's sends queue on.
func (r *lagRig) workerOf(i int) *groupWorker {
	r.src.mu.Lock()
	defer r.src.mu.Unlock()
	return r.src.sessions[i].worker
}

// holds is what a member holds: the last value it was sent per object.
func holds(c *frameConn) map[string]float64 {
	out := map[string]float64{}
	for _, r := range c.sentMsgs() {
		out[r.ObjectID] = r.Value
	}
	return out
}

// TestGroupRedialResyncRejoin: a member whose connection dies stays in the
// group. Broadcasts skip it while it redials; once back it lags on every
// object, because the peer may have restarted empty, and the next tick's
// catch-up re-synchronizes it with no further updates.
func TestGroupRedialResyncRejoin(t *testing.T) {
	const n = 2
	nets := make([]*transport.Local, n)
	caches := make([]*Cache, n)
	dests := make([]Destination, n)
	allow := make(chan struct{}) // the redial of member 0 waits for it
	for i := 0; i < n; i++ {
		nets[i] = transport.NewLocal(64)
		caches[i] = NewCache(CacheConfig{
			ID: fmt.Sprintf("cache-%d", i), Bandwidth: 10000,
			Tick: 5 * time.Millisecond,
		}, nets[i])
		defer caches[i].Close()
		conn, err := nets[i].Dial("gs")
		if err != nil {
			t.Fatal(err)
		}
		dests[i] = Destination{CacheID: fmt.Sprintf("cache-%d", i), Conn: conn}
	}
	dests[0].Redial = func() (transport.SourceConn, error) {
		<-allow
		return nets[0].Dial("gs")
	}
	r := newLagRig(t, SourceConfig{}, dests...)
	var once sync.Once
	open := func() { once.Do(func() { close(allow) }) }
	t.Cleanup(open) // before the source closes: a redial stuck here would hang it
	holding := func(i int, id string, v float64) {
		t.Helper()
		waitFor(t, 5*time.Second, func() bool {
			e, ok := caches[i].Get(id)
			return ok && e.Value == v
		}, fmt.Sprintf("cache %d to hold %s = %v", i, id, v))
	}

	r.update([]string{"gs/a"}, 1)
	r.update([]string{"gs/b"}, 2)
	r.tick(t)
	holding(0, "gs/b", 2)

	// Kill member 0's connection; its redial waits for allow.
	r.src.mu.Lock()
	dead := r.src.sessions[0].dest.Conn
	r.src.mu.Unlock()
	dead.Close()
	waitFor(t, 5*time.Second, func() bool { return r.src.Stats().Sessions[0].Redialing }, "member 0 to redial")

	r.update([]string{"gs/c"}, 3)
	r.tick(t)
	holding(1, "gs/c", 3)
	st := r.src.Stats()
	if st.Group.Members != n || !st.Sessions[0].Grouped || st.Group.Delivered != 2*2+1 || st.Group.SendErrors != 0 {
		t.Fatalf("while redialing: members=%d grouped=%v delivered=%d send errors=%d, want %d, true, 5 and 0 (skipped, not failed)",
			st.Group.Members, st.Sessions[0].Grouped, st.Group.Delivered, st.Group.SendErrors, n)
	}

	open()
	waitFor(t, 5*time.Second, func() bool { return r.src.Stats().Sessions[0].Reconnects == 1 }, "member 0 to reconnect")
	st = r.src.Stats()
	if st.Sessions[0].Pending != 3 || st.Sessions[1].Pending != 0 || st.Group.Detaches != 1 {
		t.Fatalf("after the redial: pending %d/%d, lags %d, want 3/0 and 1", st.Sessions[0].Pending, st.Sessions[1].Pending, st.Group.Detaches)
	}
	r.tick(t)
	holding(0, "gs/a", 1)
	holding(0, "gs/b", 2)
	holding(0, "gs/c", 3)
	st = r.src.Stats()
	if st.Sessions[0].Pending != 0 || st.Group.Rejoins != 1 || st.Group.Delivered != 5+3 {
		t.Errorf("after catch-up: pending %d, caught up %d, delivered %d, want 0, 1 and 8", st.Sessions[0].Pending, st.Group.Rejoins, st.Group.Delivered)
	}
	if fl := r.src.group.framesLive.Load(); fl != 0 {
		t.Errorf("framesLive = %d after quiesce, want 0", fl)
	}
}

// runConn is a frameConn that also writes runs of frames, recording the
// length of each run; failRuns fails that many runs.
type runConn struct {
	*frameConn
	runs     []int // guarded by frameConn.mu
	failRuns int
}

func (c *runConn) SendFrames(fs []*codec.Frame) error {
	c.mu.Lock()
	c.runs = append(c.runs, len(fs))
	fail := c.failRuns > 0
	if fail {
		c.failRuns--
	}
	c.mu.Unlock()
	if fail {
		return errors.New("runConn: injected run failure")
	}
	for _, f := range fs {
		if err := c.SendFrame(f); err != nil {
			return err
		}
	}
	return nil
}

// TestGroupWorkerJoinsQueuedFrames: a sender worker that finds three shared
// frames queued for one connection writes them in one call, in order, and
// settles each item only after it. A failed run write fails every item of
// the run and closes the connection, and no frame leaks either way.
func TestGroupWorkerJoinsQueuedFrames(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(map[bool]string{false: "ok", true: "failed"}[fail], func(t *testing.T) {
			conn := &runConn{frameConn: newFrameConn("leaf")}
			if fail {
				conn.failRuns = 1
			}
			src, err := NewFanoutSource(SourceConfig{
				ID: "origin", Metric: metric.ValueDeviation, Bandwidth: 1e6, Tick: time.Hour,
				Group: GroupConfig{Enabled: true},
			}, []Destination{{CacheID: "leaf", Conn: conn}})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			g, ss := src.group, src.sessions[0]
			const frames, size = 3, 4
			items := make([]sendItem, frames)
			for i := range items {
				rs := make([]wire.Refresh, size)
				for j := range rs {
					rs[j] = wire.Refresh{SourceID: "origin", ObjectID: fmt.Sprintf("obj-%d-%d", i, j), Version: 1}
				}
				b := &groupBatch{g: g, frame: codec.NewBatchFrame(rs, 1)}
				b.refs.Store(1)
				g.framesLive.Add(1)
				items[i] = sendItem{g: g, sess: ss, conn: conn, batch: b, n: size}
			}
			ss.inflight.Add(frames)
			w := startWorker()
			defer func() { w.close(); <-w.done }()
			w.push(items) // queued together: the worker takes them as one run

			waitFor(t, 5*time.Second, func() bool {
				conn.mu.Lock()
				defer conn.mu.Unlock()
				return ss.inflight.Load() == 0 && conn.closed == fail
			}, "the run to settle")
			conn.mu.Lock()
			runs, sent, closed := slices.Clone(conn.runs), slices.Clone(conn.sent), conn.closed
			conn.mu.Unlock()
			if !slices.Equal(runs, []int{frames}) {
				t.Fatalf("runs written: %v, want one of %d frames", runs, frames)
			}
			if fl := g.framesLive.Load(); fl != 0 {
				t.Fatalf("framesLive = %d after the run, want 0", fl)
			}
			delivered, sendErrors := g.delivered.Load(), g.sendErrors.Load()
			if fail {
				if delivered != 0 || sendErrors != frames || ss.groupSendErrors.Load() != frames || !closed {
					t.Fatalf("a failed run: delivered=%d errors=%d member errors=%d closed=%v, want 0, %d, %d and true",
						delivered, sendErrors, ss.groupSendErrors.Load(), closed, frames, frames)
				}
				return
			}
			if delivered != frames*size || sendErrors != 0 || closed {
				t.Fatalf("delivered=%d errors=%d closed=%v, want %d, 0 and false", delivered, sendErrors, closed, frames*size)
			}
			for k, r := range sent {
				if want := fmt.Sprintf("obj-%d-%d", k/size, k%size); r.ObjectID != want {
					t.Fatalf("refresh %d is %s, want %s: the run went out of order", k, r.ObjectID, want)
				}
			}
		})
	}
}

// TestGroupSendFailureDetach: a frame send failing mid-broadcast must not
// leak the shared frame or disturb the other members. The failed connection
// is closed; with no redial hook the member's session ends and it leaves the
// group, the one way out besides RemoveDestination.
func TestGroupSendFailureDetach(t *testing.T) {
	a, b := newFrameConn("fail-a"), newFrameConn("ok-b")
	r := newLagRig(t, SourceConfig{},
		Destination{CacheID: "member-0", Conn: a}, Destination{CacheID: "member-1", Conn: b})

	r.update([]string{"gs/one"}, 1)
	r.tick(t)
	a.setFailures(1)
	r.update([]string{"gs/two"}, 2)
	r.tick(t)
	waitFor(t, 5*time.Second, func() bool { return r.src.Stats().Group.Members == 1 }, "the failed member to leave")
	r.update([]string{"gs/three"}, 3)
	r.tick(t)

	if !received(b, "gs/two") || !received(b, "gs/three") || received(a, "gs/two") || received(a, "gs/three") {
		t.Errorf("survivor sent %v, failed member %v", b.sentMsgs(), a.sentMsgs())
	}
	st := r.src.Stats()
	if !st.Sessions[0].Ended || st.Sessions[0].Grouped || !st.Sessions[1].Grouped {
		t.Errorf("failed member ended=%v grouped=%v, survivor grouped=%v; want true, false, true",
			st.Sessions[0].Ended, st.Sessions[0].Grouped, st.Sessions[1].Grouped)
	}
	if st.Group.SendErrors != 1 || st.Group.Detaches != 0 {
		t.Errorf("send errors %d, lags %d; want 1 and 0 (leaving is not lagging)", st.Group.SendErrors, st.Group.Detaches)
	}
	if fl := r.src.group.framesLive.Load(); fl != 0 {
		t.Errorf("framesLive = %d after the failure, want 0", fl)
	}
}

// blockingConn is a connection whose batch sends block while it is held — a
// peer that stopped draining — and fail once it is closed. What it is sent
// while released goes on to the connection inside, which must take frames
// unless an outer wrapper hides SendFrame.
type blockingConn struct {
	transport.SourceConn
	gateMu sync.Mutex
	gate   chan struct{} // non-nil while held
	closed chan struct{}
	once   sync.Once
}

// newBlockingConn returns a held connection in front of conn.
func newBlockingConn(conn transport.SourceConn) *blockingConn {
	c := &blockingConn{SourceConn: conn, closed: make(chan struct{})}
	c.hold()
	return c
}

func (c *blockingConn) hold() {
	c.gateMu.Lock()
	c.gate = make(chan struct{})
	c.gateMu.Unlock()
}

func (c *blockingConn) release() {
	c.gateMu.Lock()
	if c.gate != nil {
		close(c.gate)
		c.gate = nil
	}
	c.gateMu.Unlock()
}

func (c *blockingConn) wait() error {
	c.gateMu.Lock()
	gate := c.gate
	c.gateMu.Unlock()
	if gate == nil {
		return nil
	}
	select {
	case <-gate:
		return nil
	case <-c.closed:
		return errors.New("blockingConn: closed")
	}
}

func (c *blockingConn) SendFrame(f *codec.Frame) error {
	if err := c.wait(); err != nil {
		return err
	}
	return c.SourceConn.(transport.FrameSender).SendFrame(f)
}

func (c *blockingConn) SendBatch(rs []wire.Refresh) error {
	if err := c.wait(); err != nil {
		return err
	}
	return c.SourceConn.SendBatch(rs)
}

func (c *blockingConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.SourceConn.Close()
}

// TestGroupQueueOverrunDetach: a member whose connection stops draining does
// not leave the group and does not hold it back. Each batch it cannot take
// marks that batch's objects dirty for it; once its connection drains again,
// one tick catches it up with the current values of exactly those objects.
func TestGroupQueueOverrunDetach(t *testing.T) {
	slow, healthy := newFrameConn("blocked"), newFrameConn("ok")
	blocked := newBlockingConn(slow)
	r := newLagRig(t, SourceConfig{Group: GroupConfig{Workers: 2, Queue: 1}},
		Destination{CacheID: "blocked", Conn: blocked}, Destination{CacheID: "ok", Conn: healthy})
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("gs/o-%d", i)
	}
	stuck := r.workerOf(0)
	for v := 1.0; v <= 3; v++ {
		r.update(ids, v)
		r.tick(t, stuck)
	}
	// The first batch sits in the blocked member's one queue slot; the next
	// two found it full.
	st := r.src.Stats()
	if g := st.Group; g.Members != 2 || g.QueueOverruns != 2 || g.Detaches != 1 || g.Rejoins != 0 {
		t.Fatalf("members=%d overruns=%d lags=%d caught up=%d, want 2, 2, 1 and 0", g.Members, g.QueueOverruns, g.Detaches, g.Rejoins)
	}
	if !st.Sessions[0].Grouped || st.Sessions[0].Pending != len(ids) || st.Sessions[1].Pending != 0 {
		t.Fatalf("blocked member grouped=%v pending=%d, healthy pending=%d; want true, %d and 0",
			st.Sessions[0].Grouped, st.Sessions[0].Pending, st.Sessions[1].Pending, len(ids))
	}
	if got := len(healthy.sentMsgs()); got != 3*len(ids) {
		t.Fatalf("healthy member was sent %d refreshes, want every broadcast's %d", got, 3*len(ids))
	}

	blocked.release()
	r.settle(t)
	r.tick(t)
	st = r.src.Stats()
	if st.Sessions[0].Pending != 0 || st.Group.Rejoins != 1 {
		t.Fatalf("after release: pending %d, caught up %d, want 0 and 1", st.Sessions[0].Pending, st.Group.Rejoins)
	}
	// The stuck first batch, then one catch-up refresh per dirty object.
	if got := len(slow.sentMsgs()); got != 2*len(ids) {
		t.Errorf("blocked member was sent %d refreshes, want %d", got, 2*len(ids))
	}
	for _, id := range ids {
		if v := holds(slow)[id]; v != 3 {
			t.Errorf("blocked member holds %s = %v, want 3", id, v)
		}
	}
	if len(healthy.sentMsgs()) != 3*len(ids) {
		t.Error("the catch-up sent the healthy member something")
	}
	if fl := r.src.group.framesLive.Load(); fl != 0 {
		t.Errorf("framesLive = %d after the catch-up, want 0", fl)
	}
}

// TestGroupFullQueueHoldsBack: a group none of whose members can take another
// batch cuts nothing. What it would have committed stays in its scheduler,
// where a later update coalesces with it, and the member does not lag; the
// sender worker that frees a slot resumes the pass at once, with no tick.
func TestGroupFullQueueHoldsBack(t *testing.T) {
	slow := newFrameConn("slow")
	blocked := newBlockingConn(slow)
	r := newLagRig(t, SourceConfig{Group: GroupConfig{Queue: 1, MaxBatch: 2}}, Destination{CacheID: "slow", Conn: blocked})
	ids := []string{"gs/a", "gs/b", "gs/c", "gs/d"}
	r.update(ids, 1)
	r.src.group.pass(false) // one batch fills the member's one queue slot
	if g := r.src.Stats().Group; g.Scheduled != 2 || g.Pending != 2 || g.QueueOverruns != 0 || g.Detaches != 0 {
		t.Fatalf("scheduled=%d pending=%d overruns=%d lags=%d, want 2, 2, 0 and 0", g.Scheduled, g.Pending, g.QueueOverruns, g.Detaches)
	}
	r.clock.advance(time.Second)
	r.update(ids, 2)
	blocked.release()
	waitFor(t, 5*time.Second, func() bool {
		h := holds(slow)
		return len(h) == len(ids) && h["gs/a"] == 2 && h["gs/b"] == 2 && h["gs/c"] == 2 && h["gs/d"] == 2
	}, "the freed slot to resume the pass")
	if g := r.src.Stats().Group; g.QueueOverruns != 0 || g.Detaches != 0 || g.Pending != 0 {
		t.Errorf("overruns=%d lags=%d pending=%d, want 0, 0 and 0", g.QueueOverruns, g.Detaches, g.Pending)
	}
}

// TestGroupOfOneSendsOnItsOwnWorker: destinations that are groups of their own
// never share a sender worker, whatever GroupConfig.Workers says. A cache that
// stops reading holds back only its own group: the other destination, and one
// added after churn, is sent every value, while the blocked group cuts nothing
// more until its connection drains again.
func TestGroupOfOneSendsOnItsOwnWorker(t *testing.T) {
	clock := newFakeClock()
	slow, healthy, late := newFrameConn("slow"), newFrameConn("ok"), newFrameConn("late")
	blocked := newBlockingConn(slow)
	src, err := NewFanoutSource(SourceConfig{
		ID: "gs", Metric: metric.ValueDeviation, Bandwidth: 1e9, Tick: time.Hour, Now: clock.Now,
		Params: pinnedParams(1e-6), Group: GroupConfig{Workers: 1, Queue: 1},
	}, []Destination{{CacheID: "slow", Conn: blocked}, {CacheID: "ok", Conn: healthy}, {CacheID: "gone", Conn: newFrameConn("gone")}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	if err := src.RemoveDestination("gone"); err != nil {
		t.Fatal(err)
	}
	if err := src.AddDestination(Destination{CacheID: "late", Conn: late}); err != nil {
		t.Fatal(err)
	}
	clock.advance(time.Second)
	ids := []string{"gs/a", "gs/b", "gs/c"}
	holdsAll := func(c *frameConn, v float64) bool {
		h := holds(c)
		for _, id := range ids {
			if h[id] != v {
				return false
			}
		}
		return true
	}
	passAll := func() {
		src.mu.Lock()
		groups := slices.Clone(src.groups)
		src.mu.Unlock()
		for _, g := range groups {
			g.pass(false)
		}
	}
	for v := 1.0; v <= 3; v++ {
		for _, id := range ids {
			src.Update(id, v)
		}
		passAll()
		waitFor(t, 5*time.Second, func() bool { return holdsAll(healthy, v) && holdsAll(late, v) },
			fmt.Sprintf("the unblocked destinations to hold %v", v))
		clock.advance(time.Second)
	}
	st := src.Stats()
	if len(st.Sessions) != 3 || st.Sessions[0].Pending != len(ids) || st.Sessions[0].Refreshes != 0 {
		t.Fatalf("blocked destination: %d sessions, pending %d, refreshes %d; want 3, %d and 0",
			len(st.Sessions), st.Sessions[0].Pending, st.Sessions[0].Refreshes, len(ids))
	}
	blocked.release()
	waitFor(t, 5*time.Second, func() bool {
		passAll()
		return holdsAll(slow, 3)
	}, "the released destination to catch up")
}

// sinkConn is a frame-capable member that drops what it is sent: a healthy
// cache in a large cohort, at no cost to the test (SessionStats count what it
// was sent).
type sinkConn struct{}

func (sinkConn) SendRefresh(wire.Refresh) error { return nil }
func (sinkConn) SendBatch([]wire.Refresh) error { return nil }
func (sinkConn) SendFrame(*codec.Frame) error   { return nil }
func (sinkConn) Feedback() <-chan wire.Feedback { return nil }
func (sinkConn) Close() error                   { return nil }

// TestGroupStalledMemberCatchUp: in a group of 1 000 over 16 384 objects, one
// member's connection blocks while K = 200 objects are updated. Released, it
// is sent at most K + Queue × MaxBatch refreshes beyond the broadcasts it
// took — what it missed, never the store again — and ends holding every final
// value; the 999 others are sent exactly the broadcasts.
func TestGroupStalledMemberCatchUp(t *testing.T) {
	const members, objects, k = 1000, 16384, 200
	member := newFrameConn("stalled")
	stalled := newBlockingConn(member)
	stalled.release()
	dests := make([]Destination, members)
	dests[0] = Destination{CacheID: "stalled", Conn: stalled}
	for i := 1; i < members; i++ {
		dests[i] = Destination{CacheID: fmt.Sprintf("m-%d", i), Conn: sinkConn{}}
	}
	r := newLagRig(t, SourceConfig{}, dests...)
	cfg := r.src.group.cfg
	ids := make([]string, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("gs/o-%05d", i)
	}
	// The initial sync, in ticks of Queue/2 batches: nobody lags.
	for lo, step := 0, cfg.Queue/2*cfg.MaxBatch; lo < objects; lo += step {
		r.update(ids[lo:lo+step], 1)
		r.tick(t)
	}
	// The member's identity, so that its catch-up frames are addressed.
	r.src.sessions[0].onFeedback(wire.Feedback{CacheID: "stalled"})

	stalled.hold()
	stuck := r.workerOf(0)
	for lo := 0; lo < k; lo += 10 {
		r.update(ids[lo:lo+10], 2)
		r.tick(t, stuck)
	}
	if p := r.src.Stats().Sessions[0].Pending; p != k-cfg.Queue*10 {
		t.Fatalf("stalled member lags on %d objects, want the %d its full queue turned away", p, k-cfg.Queue*10)
	}
	stalled.release()
	r.settle(t)
	r.tick(t)

	broadcast, caughtUp := 0, 0
	for _, ref := range member.sentMsgs() {
		if ref.CacheID == "" {
			broadcast++
		} else {
			caughtUp++
		}
	}
	if caughtUp > k+cfg.Queue*cfg.MaxBatch {
		t.Errorf("stalled member was sent %d refreshes beyond the %d broadcast ones, want at most %d",
			caughtUp, broadcast, k+cfg.Queue*cfg.MaxBatch)
	}
	got := holds(member)
	for i, id := range ids {
		want := 1.0
		if i < k {
			want = 2
		}
		if got[id] != want {
			t.Fatalf("stalled member holds %s = %v, want %v", id, got[id], want)
		}
	}
	r.src.mu.Lock()
	scheduled := int64(r.src.group.scheduled)
	for i, ss := range r.src.sessions[1:] {
		if n := ss.groupSent.Load(); n != scheduled {
			t.Errorf("member %d was sent %d refreshes, want the %d broadcast", i+1, n, scheduled)
			break
		}
	}
	r.src.mu.Unlock()
}

// TestGroupLagBudget: catch-up is paid from the group's bucket, a refresh at
// one message of the aggregate share. A late joiner catches up on the store
// while updates saturate the bucket, and what all members are sent stays
// within the share × t plus a two-token burst.
func TestGroupLagBudget(t *testing.T) {
	const share, objects, perStep = 300.0, 200, 20
	dests := make([]Destination, 3)
	for i := range dests {
		dests[i] = Destination{CacheID: fmt.Sprintf("m-%d", i), Conn: newFrameConn(fmt.Sprintf("m-%d", i))}
	}
	r := newLagRig(t, SourceConfig{Bandwidth: share}, dests...)
	clock, src := r.clock, r.src
	late := newFrameConn("late")
	for step := 0; step < 40; step++ {
		clock.advance(100 * time.Millisecond)
		for i := 0; i < perStep; i++ {
			src.Update(fmt.Sprintf("gs/o-%03d", (step*perStep+i)%objects), float64(step))
		}
		if step == 10 {
			if err := src.AddDestination(Destination{CacheID: "late", Conn: late}); err != nil {
				t.Fatal(err)
			}
		}
		src.group.pass(false)
		r.settle(t)
	}
	st := src.Stats()
	if st.Group.Detaches != 1 || st.Group.Rejoins != 1 || st.Sessions[3].Pending != 0 {
		t.Fatalf("late joiner: lags %d, caught up %d, pending %d; want 1, 1 and 0", st.Group.Detaches, st.Group.Rejoins, st.Sessions[3].Pending)
	}
	if st.Group.Pending == 0 {
		t.Fatal("nothing left queued: the updates never saturated the bucket")
	}
	src.mu.Lock()
	elapsed := src.now()
	src.mu.Unlock()
	members := float64(st.Group.Members)
	if bound := share*elapsed + 2*members; float64(st.Group.Delivered) > bound {
		t.Errorf("members were sent %d messages in %.1f s, over the share's %.1f", st.Group.Delivered, elapsed, bound)
	}
}

// TestGroupCloseReleasesFrames: closing the source with broadcasts still
// queued behind a blocked member must release every shared frame — the
// workers drain their queues against the closed connections.
func TestGroupCloseReleasesFrames(t *testing.T) {
	blocked := newBlockingConn(newFrameConn("blocked"))
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

// TestGroupCatchUpSendsCommittedCopy: a lagging member is brought up to what
// the rest of the group holds, not past it. Were it sent a newer value the
// group has not committed, a later move back to the committed value would
// leave it alone holding the newer one: the group would see no divergence
// to repair. A relayed object's committed origin axis is not kept, so there the
// member waits, still lagging, until the value is the committed one again.
func TestGroupCatchUpSendsCommittedCopy(t *testing.T) {
	for _, relayed := range []bool{false, true} {
		t.Run(map[bool]string{false: "local", true: "relayed"}[relayed], func(t *testing.T) {
			slow, healthy := newFrameConn("blocked"), newFrameConn("ok")
			blocked := newBlockingConn(slow)
			r := newLagRig(t, SourceConfig{
				PriorityFn: priority.SimpleDivergence, Params: pinnedParams(3),
				Group: GroupConfig{Workers: 2, Queue: 1},
			}, Destination{CacheID: "blocked", Conn: blocked}, Destination{CacheID: "ok", Conn: healthy})
			var version uint64
			update := func(v float64) {
				version++
				prov := Provenance{}
				if relayed {
					prov = Provenance{Origin: "up", Hops: 1, Via: []string{"mid"}, Epoch: 5, Version: version}
				}
				r.src.UpdateFrom("gs/x", v, prov)
			}
			stuck := r.workerOf(0)
			update(10)
			r.tick(t, stuck) // held in the blocked member's one queue slot
			update(20)
			r.tick(t, stuck) // the queue is full: the member lags on x
			update(21)
			r.tick(t, stuck) // within the threshold of the committed 20: not sent
			blocked.release()
			r.settle(t)
			r.tick(t) // catch-up
			if relayed {
				if got := holds(slow)["gs/x"]; got != 10 {
					t.Fatalf("blocked member was caught up to %v, want it left at 10 until x is committed again", got)
				}
				if p := r.src.Stats().Sessions[0].Pending; p != 1 {
					t.Fatalf("blocked member lags on %d objects, want 1", p)
				}
			}
			update(20)
			r.tick(t) // back at the committed value: nothing to broadcast
			got, want := slow.sentMsgs(), healthy.sentMsgs()
			g, w := got[len(got)-1], want[len(want)-1]
			if g.Value != w.Value || !relayed && g.Version != w.Version {
				t.Errorf("blocked member holds %v (version %d), the rest of the group %v (version %d)", g.Value, g.Version, w.Value, w.Version)
			}
			if p := r.src.Stats().Sessions[0].Pending; p != 0 {
				t.Errorf("blocked member still lags on %d objects", p)
			}
		})
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
	before, survivor := len(a.sentMsgs()), len(b.sentMsgs())
	// Keep the workload flowing until the survivor has been sent 25 more
	// refreshes: the removed member must see none of them.
	groupPump(t, src, []string{"gs/y"}, func() bool {
		return len(b.sentMsgs()) >= survivor+25
	}, "survivor to keep receiving broadcasts")
	if after := len(a.sentMsgs()); after != before {
		t.Errorf("removed member still receiving (%d -> %d)", before, after)
	}
}

// TestGroupLateJoinerSyncsBeforeAttach: a destination added to a running
// group source with a non-empty store is a member at once, lagging on every
// stored object. The next tick's catch-up sends it the whole store with no
// further updates, and sends the early member nothing.
func TestGroupLateJoinerSyncsBeforeAttach(t *testing.T) {
	a := newFrameConn("early")
	r := newLagRig(t, SourceConfig{}, Destination{CacheID: "early", Conn: a})
	ids := []string{"gs/x", "gs/y"}
	r.update(ids, 1)
	r.tick(t)

	late := newFrameConn("late")
	if err := r.src.AddDestination(Destination{CacheID: "late", Conn: late}); err != nil {
		t.Fatal(err)
	}
	st := r.src.Stats()
	if st.Group.Members != 2 || !st.Sessions[1].Grouped || st.Sessions[1].Pending != len(ids) || st.Group.Detaches != 1 {
		t.Fatalf("after the join: members=%d grouped=%v pending=%d lags=%d, want 2, true, %d and 1",
			st.Group.Members, st.Sessions[1].Grouped, st.Sessions[1].Pending, st.Group.Detaches, len(ids))
	}
	early := len(a.sentMsgs())
	r.tick(t)
	if got := holds(late); len(got) != len(ids) || got["gs/x"] != 1 || got["gs/y"] != 1 {
		t.Errorf("late joiner holds %v, want every object at 1", got)
	}
	if st := r.src.Stats(); st.Sessions[1].Pending != 0 || st.Group.Rejoins != 1 {
		t.Errorf("after catch-up: pending %d, caught up %d, want 0 and 1", st.Sessions[1].Pending, st.Group.Rejoins)
	}
	if len(a.sentMsgs()) != early {
		t.Error("the late joiner's catch-up sent the early member something")
	}
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
	return r.g.waking, r.g.disarmed, len(r.src.wake)
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

// queued runs feed with the group's pass lock held, so an early pass the
// feed asks for starts only once the whole feed is queued: what it cuts does
// not depend on how fast the flusher wakes.
func (r *earlyRig) queued(feed func()) {
	r.g.passMu.Lock()
	defer r.g.passMu.Unlock()
	feed()
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

// TestGroupEarlyPass: a frame's worth of traffic wakes the flusher, not the
// next tick, and the woken pass sends everything sendable: full frames, then
// the partial rest.
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
			frame := r.g.cfg.MaxBatch
			if frame != 64 {
				t.Fatalf("MaxBatch = %d, want the default 64", frame)
			}

			feed(r.src, 0, frame-1)
			if waking, _, queued := r.trigger(); waking || queued != 0 {
				t.Fatalf("one short of a frame: waking=%v, %d requests queued, want none", waking, queued)
			}
			if st := r.src.Stats().Group; st.Batches != 0 || st.Pending != frame-1 {
				t.Fatalf("one short of a frame: batches=%d pending=%d, want 0 and %d", st.Batches, st.Pending, frame-1)
			}

			// The update that fills the frame sends it.
			feed(r.src, frame-1, frame)
			r.settle(t)
			if st := r.src.Stats().Group; st.Scheduled != frame || st.EarlyBatches != 1 || st.Pending != 0 {
				t.Fatalf("a full frame: scheduled=%d early=%d pending=%d, want %d, 1 and 0", st.Scheduled, st.EarlyBatches, st.Pending, frame)
			}

			// Two more frames and ten over, queued before the pass starts: it
			// cuts both frames and the partial rest, and leaves nothing.
			r.queued(func() { feed(r.src, frame, 3*frame+10) })
			r.settle(t)
			st := r.src.Stats().Group
			if st.Scheduled != 3*frame+10 || st.Batches != 4 || st.EarlyBatches != 4 || st.Pending != 0 {
				t.Fatalf("after the early passes: scheduled=%d batches=%d early=%d pending=%d, want %d, 4, 4 and 0",
					st.Scheduled, st.Batches, st.EarlyBatches, st.Pending, 3*frame+10)
			}
			for i := range r.nets {
				if sizes := r.frames(i); !slices.Equal(sizes, []int{frame, frame, frame, 10}) {
					t.Fatalf("member %d received frames of %v, want %d, %d, %d and 10", i, sizes, frame, frame, frame)
				}
			}

			// Nothing is left for the tick.
			r.g.pass(false)
			r.settle(t)
			if st := r.src.Stats().Group; st.Batches != 4 {
				t.Fatalf("the tick pass cut %d batches, want none", st.Batches-4)
			}
		})
	}
}

// TestGroupEarlyPassSendsOutrankedLeftovers: leftovers that every later
// arrival outranks leave on the early pass that the later frame wakes, with
// no tick. Under AreaGeneral a low deviation keeps the low priority it was
// observed at, so a pass that cut full frames only would leave it behind
// each new frame until the tick.
func TestGroupEarlyPassSendsOutrankedLeftovers(t *testing.T) {
	r := newEarlyRig(t, 2e6, time.Hour, pinnedParams(1e-6))
	frame := r.g.cfg.MaxBatch
	const low = 10
	for i := 0; i < low; i++ {
		r.src.Update(fmt.Sprintf("low-%02d", i), 1)
	}
	r.clock.advance(time.Second)
	r.queued(func() {
		for i := 0; i < frame; i++ {
			r.src.Update(fmt.Sprintf("high-%04d", i), 100)
		}
	})
	r.settle(t)
	if st := r.src.Stats().Group; st.Batches != 2 || st.EarlyBatches != 2 || st.Pending != 0 {
		t.Fatalf("batches=%d early=%d pending=%d, want 2, 2 and 0", st.Batches, st.EarlyBatches, st.Pending)
	}
	for i := range r.nets {
		for j, want := range []struct {
			prefix string
			n      int
		}{{"high-", frame}, {"low-", low}} {
			b := <-r.nets[i].Batches()
			if len(b.Refreshes) != want.n {
				t.Fatalf("member %d, frame %d: %d refreshes, want %d", i, j, len(b.Refreshes), want.n)
			}
			for _, ref := range b.Refreshes {
				if !strings.HasPrefix(ref.ObjectID, want.prefix) {
					t.Fatalf("member %d, frame %d carries %s, want only %s objects", i, j, ref.ObjectID, want.prefix)
				}
			}
		}
	}
}

// TestGroupEarlyPassCarry: a pass that ended on a partial frame of k
// refreshes counts them toward the next frame, so the trigger fires at
// MaxBatch − k queued, and not one sooner.
func TestGroupEarlyPassCarry(t *testing.T) {
	r := newEarlyRig(t, 2e6, time.Hour, pinnedParams(1e-6))
	frame := r.g.cfg.MaxBatch
	const k = 10
	r.queued(func() {
		for i := 0; i < frame+k; i++ {
			r.src.Update(fmt.Sprintf("obj-%04d", i), 1)
		}
	})
	r.settle(t)
	if st := r.src.Stats().Group; st.EarlyBatches != 2 || st.Pending != 0 {
		t.Fatalf("the first pass: early=%d pending=%d, want 2 and 0", st.EarlyBatches, st.Pending)
	}
	r.queued(func() {
		for i := 0; i < frame-k; i++ {
			if waking, _, _ := r.trigger(); waking {
				t.Fatalf("the trigger fired at %d queued, want %d", i, frame-k)
			}
			r.src.Update(fmt.Sprintf("next-%04d", i), 1)
		}
		if waking, _, _ := r.trigger(); !waking {
			t.Fatalf("%d queued after a carry of %d: the trigger did not fire", frame-k, k)
		}
	})
	r.settle(t)
	if st := r.src.Stats().Group; st.EarlyBatches != 3 || st.Pending != 0 {
		t.Fatalf("the second pass: early=%d pending=%d, want 3 and 0", st.EarlyBatches, st.Pending)
	}
	for i := range r.nets {
		if sizes := r.frames(i); !slices.Equal(sizes, []int{frame, k, frame - k}) {
			t.Fatalf("member %d received frames of %v, want %d, %d and %d", i, sizes, frame, k, frame-k)
		}
	}
}

// TestGroupEarlyPassBudgetLimited: a group whose bucket cannot hold a frame
// (1000 msg/s per member at a 10 ms tick: a burst of 20, under 64) never
// passes early however long its queue, and stays inside its budget.
func TestGroupEarlyPassBudgetLimited(t *testing.T) {
	r := newEarlyRig(t, 2000, 10*time.Millisecond, pinnedParams(1e-6))
	start := r.clock.Now()
	n := 8 * r.g.cfg.MaxBatch
	for i := 0; i < n; i++ {
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
	frame := r.g.cfg.MaxBatch

	for round := 0; round < 2; round++ {
		// Crossing a frame (the first round) or the first update after a
		// tick (the second) asks for exactly one pass, which finds nothing.
		for i := 0; i < frame; i++ {
			r.src.Update(fmt.Sprintf("obj-%04d", i), float64(round+1))
		}
		r.settle(t)
		if _, disarmed, _ := r.trigger(); !disarmed {
			t.Fatalf("round %d: the fruitless pass left the trigger armed", round)
		}
		// A stream of updates over the same residuals, and new objects
		// that lengthen the queue by more than a frame, ask for none.
		for i := 0; i < 4*frame; i++ {
			r.src.Update(fmt.Sprintf("obj-%04d", i%frame), float64(round+10))
			r.src.Update(fmt.Sprintf("new-%d-%04d", round, i%(frame+1)), 1)
			if waking, _, queued := r.trigger(); waking || queued != 0 {
				t.Fatalf("round %d, update %d: a disarmed trigger fired", round, i)
			}
		}
		if st := r.src.Stats().Group; st.Batches != 0 || st.Pending != (round+2)*frame+round+1 {
			t.Fatalf("round %d: batches=%d pending=%d, want 0 and %d", round, st.Batches, st.Pending, (round+2)*frame+round+1)
		}
		r.g.pass(false) // the tick re-arms it
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
	for i := 0; i < g.cfg.MaxBatch; i++ {
		src.updateLocked(fmt.Sprintf("obj-%04d", i), 1, Provenance{}, now, unix)
	}
	g.wakeLocked(now)
	if !g.waking {
		src.mu.Unlock()
		t.Fatal("a full frame with an ample bucket did not ask for a pass")
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
		r.g.pass(false) // cuts nothing: the bucket holds a thousandth of a token
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

	t.Run("an early pass that drains", func(t *testing.T) {
		r := newEarlyRig(t, 2e6, time.Hour, params)
		r.queued(func() {
			for i := 0; i < r.g.cfg.MaxBatch+10; i++ {
				r.src.Update(fmt.Sprintf("obj-%04d", i), 100)
			}
		})
		r.settle(t)
		if st := r.src.Stats().Group; st.EarlyBatches != 2 || st.Pending != 0 {
			t.Fatalf("early=%d pending=%d, want 2 and 0", st.EarlyBatches, st.Pending)
		}
		if limited, _ := state(r); limited {
			t.Fatal("an early pass ended on a partial frame with budget in hand, but the engine is limited")
		}
		feedback(r)
		if _, th := state(r); th != params.InitialThreshold/params.Omega {
			t.Fatalf("threshold %v after positive feedback, want %v", th, params.InitialThreshold/params.Omega)
		}
	})
}
