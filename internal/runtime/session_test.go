package runtime

import (
	"errors"
	"math"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"bestsync/internal/core"
	"bestsync/internal/metric"
	"bestsync/internal/transport"
	"bestsync/internal/wire"
)

// fakeConn is a controllable transport.SourceConn: it records sent
// refreshes and can be told to fail the next N sends.
type fakeConn struct {
	mu       sync.Mutex
	failNext int
	sent     []wire.Refresh
	fb       chan wire.Feedback
	closed   bool
}

func newFakeConn() *fakeConn {
	return &fakeConn{fb: make(chan wire.Feedback, 4)}
}

func (c *fakeConn) SendRefresh(r wire.Refresh) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("fakeConn: closed")
	}
	if c.failNext > 0 {
		c.failNext--
		return errors.New("fakeConn: injected send failure")
	}
	c.sent = append(c.sent, r)
	return nil
}

func (c *fakeConn) SendBatch(rs []wire.Refresh) error {
	for _, r := range rs {
		if err := c.SendRefresh(r); err != nil {
			return err
		}
	}
	return nil
}

func (c *fakeConn) Feedback() <-chan wire.Feedback { return c.fb }

func (c *fakeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.fb)
	}
	return nil
}

func (c *fakeConn) setFailures(n int) {
	c.mu.Lock()
	c.failNext = n
	c.mu.Unlock()
}

func (c *fakeConn) sentMsgs() []wire.Refresh {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.Refresh(nil), c.sent...)
}

// fakeClock is a manually advanced clock for deterministic session tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestSession builds a single-destination source driven by hand: the
// hour-long tick keeps the flusher from ever passing, and beta is disabled so
// threshold arithmetic is exactly α and ω. The destination is a group of its
// own.
func newTestSession(t *testing.T, conn transport.SourceConn, clock *fakeClock) (*Source, *syncSession) {
	return newTestSessionTo(t, Destination{CacheID: "c1", Conn: conn}, clock)
}

func newTestSessionTo(t *testing.T, d Destination, clock *fakeClock) (*Source, *syncSession) {
	t.Helper()
	params := core.DefaultParams(1, 1000)
	params.DisableBeta = true
	src, err := NewFanoutSource(SourceConfig{
		ID:        "s1",
		Metric:    metric.ValueDeviation,
		Bandwidth: 1000,
		Tick:      time.Hour,
		Params:    params,
		Now:       clock.Now,
	}, []Destination{d})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src, src.sessions[0]
}

// passWith runs one tick pass of the group of session ss by hand with exactly
// budget tokens in its bucket — what it accrued is replaced, so the test says
// what the pass may spend — waits for the member's sends to finish and
// returns what the pass left in the bucket.
func passWith(ss *syncSession, budget float64) float64 {
	s := ss.src
	s.mu.Lock()
	g := ss.group
	g.accrueLocked(s.now())
	g.budget.tokens = budget
	s.mu.Unlock()
	g.pass(false)
	for ss.inflight.Load() != 0 {
		stdruntime.Gosched()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return g.budget.tokens
}

// midSendConn runs a one-shot hook in the middle of the next send: after the
// group committed the refresh, before the send returns.
type midSendConn struct {
	transport.SourceConn
	hook func()
}

func (c *midSendConn) SendBatch(rs []wire.Refresh) error {
	if h := c.hook; h != nil {
		c.hook = nil
		h()
	}
	return c.SourceConn.SendBatch(rs)
}

// TestFlushRetriesAfterSendError is the regression test for the
// lost-refresh bug: a send error once dropped a committed refresh forever. A
// group commits a refresh when it schedules it, so a failed send is not
// retried as such: it closes the connection, the member redials and lags on
// every object, and the next pass catches it up. The member ends holding
// every value, and SendErrors counts the failure.
func TestFlushRetriesAfterSendError(t *testing.T) {
	conn, conn2 := newFakeConn(), newFakeConn()
	clock := newFakeClock()
	src, ss := newTestSessionTo(t, Destination{CacheID: "c1", Conn: conn,
		Redial: func() (transport.SourceConn, error) { return conn2, nil }}, clock)

	clock.advance(time.Second)
	src.Update("x", 42) // priority 1s × 42 ≫ threshold 1
	src.Update("y", 7)
	conn.setFailures(1)
	passWith(ss, 2)
	if got := len(conn.sentMsgs()); got != 0 {
		t.Fatalf("send failed but %d refreshes recorded", got)
	}
	waitFor(t, 5*time.Second, func() bool { return src.Stats().Sessions[0].Reconnects == 1 }, "the member to redial")
	st := src.Stats()
	if st.SendErrors != 1 || st.Refreshes != 0 {
		t.Errorf("send errors = %d, refreshes = %d, want 1 and 0", st.SendErrors, st.Refreshes)
	}
	if st.Pending != 2 {
		t.Errorf("pending = %d, want 2 (the member lags on both objects)", st.Pending)
	}

	passWith(ss, 2)
	got := map[string]float64{}
	for _, r := range conn2.sentMsgs() {
		got[r.ObjectID] = r.Value
	}
	if len(got) != 2 || got["x"] != 42 || got["y"] != 7 {
		t.Fatalf("after the redial the member holds %v, want x=42 y=7", got)
	}
	st = src.Stats()
	if st.SendErrors != 1 || st.Refreshes != 2 || st.Pending != 0 {
		t.Errorf("after recovery: send errors=%d refreshes=%d pending=%d, want 1/2/0",
			st.SendErrors, st.Refreshes, st.Pending)
	}
}

// TestFlushCommitsResidualOnRacingUpdate: an update that lands while a
// refresh is in flight — committed when its pass scheduled it, not yet sent —
// leaves a residual divergence against the new sent-state, and the object
// stays scheduled, so the newer value is sent too with no further Update. A
// residual once left the queue with zero area, and the cache kept the old
// value however long the source stayed quiet.
func TestFlushCommitsResidualOnRacingUpdate(t *testing.T) {
	conn := newFakeConn()
	hooked := &midSendConn{SourceConn: conn}
	clock := newFakeClock()
	src, ss := newTestSession(t, hooked, clock)

	clock.advance(time.Second)
	src.Update("x", 10)
	passWith(ss, 1)
	clock.advance(time.Second)
	src.Update("x", 20)
	passWith(ss, 1)
	sent := conn.sentMsgs()
	if len(sent) != 2 || sent[1].Value != 20 {
		t.Fatalf("sent %+v, want two refreshes ending at 20", sent)
	}
	// The session's view now matches the canonical value: nothing pending.
	if p := src.Stats().Pending; p != 0 {
		t.Errorf("pending = %d, want 0", p)
	}

	// The race itself: 101 lands while the refresh carrying 100 is in flight.
	clock.advance(time.Second)
	src.Update("x", 100)
	hooked.hook = func() {
		clock.advance(10 * time.Millisecond)
		src.Update("x", 101)
	}
	passWith(ss, 1)
	if sent = conn.sentMsgs(); len(sent) != 3 || sent[2].Value != 100 {
		t.Fatalf("sent %+v, want a third refresh carrying the value built before the race", sent)
	}
	if p := src.Stats().Pending; p != 1 {
		t.Fatalf("pending = %d after the racing pass, want 1 (the residual must stay queued)", p)
	}
	// No further Update: feedback alone lowers the threshold until the
	// residual's area clears it, and quiet passes deliver 101.
	for i := 0; i < 50 && len(conn.sentMsgs()) == 3; i++ {
		ss.onFeedback(wire.Feedback{})
		clock.advance(time.Second)
		passWith(ss, 1)
	}
	if sent = conn.sentMsgs(); len(sent) != 4 || sent[3].Value != 101 {
		t.Fatalf("sent %+v, want the racing update delivered with no further Update", sent)
	}
	if p := src.Stats().Pending; p != 0 {
		t.Errorf("pending = %d once the cache holds the canonical value, want 0", p)
	}
}

// TestSplitHorizonBindsAtSendTime is the regression test for the loop
// rejections TestRelayCycleTerminates saw once in ten runs: split horizon
// was checked only when an update was observed, so a relayed value queued
// BEFORE feedback revealed the peer's identity was still sent (and rejected
// by the peer's loop guard, a wasted message). The exclusion must bind at
// send time: the pass drops the object unsent, keeps its budget and leaves
// no demand behind.
func TestSplitHorizonBindsAtSendTime(t *testing.T) {
	local := transport.NewLocal(8)
	defer local.Close()
	conn, err := local.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	src, err := NewFanoutSource(SourceConfig{
		ID: "s1", Metric: metric.ValueDeviation, Bandwidth: 1000,
		Tick: time.Hour, Now: clock.Now, // the test drives the passes by hand
	}, []Destination{{CacheID: "c1", Conn: conn}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ss := src.sessions[0]

	clock.advance(time.Second)
	src.UpdateFromAll([]RelayedUpdate{{ObjectID: "x", Value: 42,
		Prov: Provenance{Origin: "root", Hops: 2, Via: []string{"peer", "mid"}, Epoch: 1, Version: 1}}})
	if p := src.Stats().Pending; p != 1 {
		t.Fatalf("pending = %d, want 1 (the peer is still anonymous, so x must queue)", p)
	}
	if err := local.SendFeedback("s1", wire.Feedback{CacheID: "peer"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return src.Stats().Sessions[0].RemoteID == "peer"
	}, "feedback to reveal the peer's identity")

	clock.advance(time.Second)
	if left := passWith(ss, 1); left != 1 {
		t.Errorf("the pass left budget %v, want 1 (an excluded object is not charged)", left)
	}
	if n := len(local.Batches()); n != 0 {
		t.Errorf("%d batches sent to a peer already on the value's path, want 0", n)
	}
	st := src.Stats()
	if st.Refreshes != 0 || st.Pending != 0 {
		t.Errorf("refreshes=%d pending=%d, want 0/0", st.Refreshes, st.Pending)
	}
	src.mu.Lock()
	demand := ss.group.demand
	src.mu.Unlock()
	if demand != 0 {
		t.Errorf("group demand = %v, want 0 (an unsendable object must not earn share)", demand)
	}
}

// TestSessionThresholdInterplay drives OnFeedback/OnRefreshSent through a
// destination's group and checks the Section 5 feedback loop end to end: the
// threshold rises by α per refresh sent, falls by ω on feedback — and holds
// still when the group is send-limited (feedback must not re-open the
// floodgate of a source already at capacity) or cannot send at all.
func TestSessionThresholdInterplay(t *testing.T) {
	const (
		alpha = core.DefaultAlpha
		omega = core.DefaultOmega
	)
	// interplay is one case's source, its destination's connection, and the
	// gate its redial waits on.
	type interplay struct {
		src   *Source
		ss    *syncSession
		conn  *fakeConn
		clock *fakeClock
		allow chan struct{}
	}
	// Each step performs one protocol event and gives the expected
	// threshold as a function of the previous one.
	type step struct {
		name string
		do   func(r *interplay)
		want func(prev float64) float64
	}
	update := func(val float64) func(*interplay) {
		return func(r *interplay) {
			r.clock.advance(time.Second)
			r.src.Update("x", val)
		}
	}
	flush := func(budget float64) func(*interplay) {
		return func(r *interplay) { passWith(r.ss, budget) }
	}
	feedback := func(r *interplay) {
		r.ss.onFeedback(wire.Feedback{CacheID: "remote-7"})
	}
	same := func(prev float64) float64 { return prev }

	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "send raises by alpha, feedback drops by omega",
			steps: []step{
				{"update", update(1000), same},
				{"send", flush(1), func(p float64) float64 { return p * alpha }},
				{"feedback", feedback, func(p float64) float64 { return p / omega }},
				{"update2", update(2000), same},
				{"send2", flush(1), func(p float64) float64 { return p * alpha }},
			},
		},
		{
			name: "feedback ignored while send-limited",
			steps: []step{
				{"update", update(1000), same},
				// flush with zero budget: the over-threshold object cannot
				// be sent, so the session marks itself send-limited.
				{"starve", flush(0), same},
				{"feedback ignored", feedback, same},
				// Budget returns: the send itself still raises the
				// threshold, and the session is no longer limited.
				{"send", flush(1), func(p float64) float64 { return p * alpha }},
				{"feedback lands", feedback, func(p float64) float64 { return p / omega }},
			},
		},
		{
			// A group commits what it schedules, so a send that is going to
			// fail must not be scheduled: while the connection is down and
			// redialing, a pass cuts nothing.
			name: "failed send leaves threshold untouched",
			steps: []step{
				{"update", update(1000), same},
				{"fail", func(r *interplay) {
					r.conn.Close()
					waitFor(t, 5*time.Second, func() bool { return r.src.Stats().Sessions[0].Redialing }, "the redial")
					passWith(r.ss, 1)
				}, same},
				{"retry succeeds", func(r *interplay) {
					close(r.allow)
					waitFor(t, 5*time.Second, func() bool { return r.src.Stats().Sessions[0].Reconnects == 1 }, "the reconnect")
					passWith(r.ss, 1)
				}, func(p float64) float64 { return p * alpha }},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &interplay{conn: newFakeConn(), clock: newFakeClock(), allow: make(chan struct{})}
			r.src, r.ss = newTestSessionTo(t, Destination{CacheID: "c1", Conn: r.conn,
				Redial: func() (transport.SourceConn, error) {
					<-r.allow
					return newFakeConn(), nil
				}}, r.clock)
			t.Cleanup(func() {
				select {
				case <-r.allow:
				default:
					close(r.allow) // before the source closes: a redial stuck here would hang it
				}
			})
			src := r.src
			prev := src.Stats().Threshold
			if prev != 1 {
				t.Fatalf("initial threshold = %v, want 1", prev)
			}
			for _, s := range tc.steps {
				s.do(r)
				got := src.Stats().Threshold
				want := s.want(prev)
				if math.Abs(got-want) > 1e-9*want {
					t.Fatalf("after %q: threshold = %v, want %v", s.name, got, want)
				}
				prev = got
			}
		})
	}
}

// TestSessionRedialRecovers: with Destination.Redial set, a dead connection
// no longer ends the session — it redials with backoff (surviving an initial
// failure), lags on every object so a peer that restarted empty is fully
// re-synchronized, and counts the reconnect.
func TestSessionRedialRecovers(t *testing.T) {
	conn1 := newFakeConn()
	conn2 := newFakeConn()
	clock := newFakeClock()
	params := core.DefaultParams(1, 1000)
	params.DisableBeta = true
	redials := make(chan int, 8)
	attempt := 0
	src, err := NewFanoutSource(SourceConfig{
		ID:        "s1",
		Metric:    metric.ValueDeviation,
		Bandwidth: 1000,
		Tick:      time.Hour, // passes are driven manually
		Params:    params,
		Now:       clock.Now,
	}, []Destination{{
		CacheID: "c1",
		Conn:    conn1,
		Redial: func() (transport.SourceConn, error) {
			attempt++
			redials <- attempt
			if attempt == 1 {
				return nil, errors.New("still down")
			}
			return conn2, nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ss := src.sessions[0]

	clock.advance(time.Second)
	src.Update("x", 42)
	passWith(ss, 1)
	if got := len(conn1.sentMsgs()); got != 1 {
		t.Fatalf("pre-failure refresh count = %d, want 1", got)
	}
	if p := src.Stats().Sessions[0].Pending; p != 0 {
		t.Fatalf("pending = %d before the failure, want 0", p)
	}
	ss.onFeedback(wire.Feedback{CacheID: "old-peer"})
	if got := src.Stats().Sessions[0].RemoteID; got != "old-peer" {
		t.Fatalf("remote id = %q before the failure, want old-peer", got)
	}

	// Kill the connection: the session must retry the redial until it
	// succeeds instead of ending.
	conn1.Close()
	waitFor(t, 5*time.Second, func() bool {
		return src.Stats().Sessions[0].Reconnects == 1
	}, "session to reconnect")
	if attempt != 2 {
		t.Errorf("redial attempts = %d, want 2 (one failure, one success)", attempt)
	}
	// The replacement peer may be a different instance: the learned
	// identity must not survive the reconnect (a stale CacheID stamp would
	// count as misrouted on the new peer until its first feedback).
	if got := src.Stats().Sessions[0].RemoteID; got != "" {
		t.Errorf("remote id %q survived the reconnect, want cleared", got)
	}

	// The member lags on the object even though its value never changed,
	// so a peer that restarted empty still gets it.
	if p := src.Stats().Sessions[0].Pending; p != 1 {
		t.Errorf("pending = %d after reconnect, want 1 (lagging on x)", p)
	}
	passWith(ss, 1)
	sent := conn2.sentMsgs()
	if len(sent) != 1 || sent[0].ObjectID != "x" || sent[0].Value != 42 {
		t.Fatalf("replacement connection received %+v, want the re-registration of x=42", sent)
	}
	if got := len(conn1.sentMsgs()); got != 1 {
		t.Errorf("dead connection received more refreshes after close: %d", got)
	}
}

// TestSessionLearnsRemoteID: the cache identity stamped on feedback becomes
// the session's RemoteID and is stamped on subsequent refreshes.
func TestSessionLearnsRemoteID(t *testing.T) {
	conn := newFakeConn()
	clock := newFakeClock()
	src, ss := newTestSession(t, conn, clock)

	clock.advance(time.Second)
	src.Update("x", 100)
	passWith(ss, 1)
	if sent := conn.sentMsgs(); sent[0].CacheID != "" {
		t.Errorf("refresh before any feedback stamped CacheID %q, want empty",
			sent[0].CacheID)
	}
	ss.onFeedback(wire.Feedback{CacheID: "the-real-cache"})
	st := src.Stats()
	if st.Sessions[0].RemoteID != "the-real-cache" {
		t.Errorf("remote id = %q, want the-real-cache", st.Sessions[0].RemoteID)
	}
	clock.advance(time.Second)
	src.Update("x", 200)
	passWith(ss, 1)
	sent := conn.sentMsgs()
	if got := sent[len(sent)-1].CacheID; got != "the-real-cache" {
		t.Errorf("refresh after feedback stamped CacheID %q, want the-real-cache", got)
	}
}

// TestSessionStampsProvenance: UpdateFrom's origin and hop count travel on
// the outgoing refresh, and plain Update leaves them zero.
func TestSessionStampsProvenance(t *testing.T) {
	conn := newFakeConn()
	clock := newFakeClock()
	src, ss := newTestSession(t, conn, clock)

	clock.advance(time.Second)
	src.Update("local-obj", 100)
	src.UpdateFrom("relayed-obj", 200, Provenance{
		Origin: "origin-src", Hops: 3, Via: []string{"relay-a", "relay-b", "relay-c"},
	})
	passWith(ss, 2)
	sent := conn.sentMsgs()
	if len(sent) != 2 {
		t.Fatalf("sent %d refreshes, want 2", len(sent))
	}
	byID := map[string]wire.Refresh{}
	for _, r := range sent {
		byID[r.ObjectID] = r
	}
	if r := byID["local-obj"]; r.Origin != "" || r.Hops != 0 || r.Via != nil {
		t.Errorf("local update stamped origin %q hops %d via %v, want zero provenance", r.Origin, r.Hops, r.Via)
	}
	r := byID["relayed-obj"]
	if r.Origin != "origin-src" || r.Hops != 3 {
		t.Errorf("relayed update stamped origin %q hops %d, want origin-src/3", r.Origin, r.Hops)
	}
	if len(r.Via) != 3 || r.Via[0] != "relay-a" || r.Via[2] != "relay-c" {
		t.Errorf("relayed update stamped via %v, want [relay-a relay-b relay-c]", r.Via)
	}
}
